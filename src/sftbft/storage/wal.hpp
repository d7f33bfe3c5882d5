// Record-oriented write-ahead log over a StorageBackend.
//
// Frame layout per record (little-endian, via common::codec):
//
//     u32 length | u32 crc32(payload) | payload bytes
//
// Appends stage the frame; sync() makes it durable. replay() walks the log
// from the start and returns every intact record, stopping at the first
// frame that is truncated (torn write at the sync boundary) or whose CRC
// mismatches (media corruption). Both conditions are reported, and
// `valid_bytes` marks the byte offset of the last intact frame so recovery
// can repair_tail() — truncate the log back to a clean state before
// appending again (the documented post-crash state: every record up to the
// tear survives byte-identically, everything after it is gone).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sftbft/common/bytes.hpp"
#include "sftbft/storage/backend.hpp"

namespace sftbft::storage {

class Wal {
 public:
  Wal(StorageBackend& backend, std::string name)
      : backend_(&backend), name_(std::move(name)) {}

  /// Frames and stages one record. Call sync() to make it durable.
  void append(BytesView record);

  /// Flushes staged frames to durable storage.
  void sync();

  struct ReplayResult {
    std::vector<Bytes> records;  ///< intact records, in append order
    /// True when the log ends in a torn (truncated) frame — expected after
    /// a crash between append and sync.
    bool torn_tail = false;
    /// True when a frame's CRC mismatched — media corruption, not a tear.
    bool corrupt = false;
    /// Offset one past the last intact frame (where repair truncates to).
    std::size_t valid_bytes = 0;
  };

  /// Reads the whole log and parses frames; never throws on a damaged tail.
  [[nodiscard]] ReplayResult replay() const;

  /// Truncates the log to `result.valid_bytes`, discarding the damaged tail
  /// so subsequent appends start from a clean frame boundary.
  void repair_tail(const ReplayResult& result);

  /// Atomically replaces the log with the given records (post-snapshot
  /// truncation: the safety envelope moves into the snapshot object and the
  /// log restarts empty or re-seeded). Durable on return.
  void reset(const std::vector<Bytes>& records = {});

  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  [[nodiscard]] static Bytes frame(BytesView record);

  StorageBackend* backend_;
  std::string name_;
};

}  // namespace sftbft::storage
