// Canonical binary codec.
//
// Every protocol message has a single canonical encoding (fixed-width
// little-endian integers, length-prefixed containers). Signing and hashing
// operate on these canonical bytes, so two structurally equal messages always
// produce identical digests — a property several tests rely on.
//
// Synthetic transaction bodies (types::Transaction) are a pure function of
// their record, so an encoding may hold them as *runs* instead of bytes: a
// BodyRun names the id, size and offset of one body, and nothing is written
// for it. `Encoder::data()` and `take()` expand every run, so hashes, the
// storage layer and every other byte consumer see the full wire bytes;
// `take_compact()` keeps them as runs (net::Envelope::pack), and a Decoder
// given the runs reads the compact form exactly as it would the expanded
// bytes, except that a body can only be skipped whole, never read.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sftbft/common/bytes.hpp"

namespace sftbft {

/// Thrown by Decoder on truncated or malformed input.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// One synthetic body held as a run: `size` bytes derived from `id` (its
/// little-endian bytes repeated, the last copy cut short) at byte `offset`
/// of the full encoding.
struct BodyRun {
  std::uint64_t offset = 0;
  std::uint64_t id = 0;
  std::uint32_t size = 0;

  friend bool operator==(const BodyRun&, const BodyRun&) = default;
};

/// Runs in increasing offset order.
using BodyRuns = std::vector<BodyRun>;

/// An encoding in compact form: every byte outside a run, in order, plus
/// the runs.
struct CompactBytes {
  Bytes literal;
  BodyRuns runs;
};

/// Appends fixed-width little-endian values to an owned buffer.
class Encoder {
 public:
  Encoder() = default;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put_le(v, 2); }
  void u32(std::uint32_t v) { put_le(v, 4); }
  void u64(std::uint64_t v) { put_le(v, 8); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v), 8); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed (u32) raw bytes.
  void bytes(BytesView data);

  /// Length-prefixed (u32) UTF-8 string.
  void str(const std::string& s);

  /// Raw bytes with no length prefix (for fixed-size digests/signatures).
  void raw(BytesView data);

  /// Appends the synthetic body of transaction `id` (`size` bytes) as a
  /// run: it is recorded, not written, until data() or take() expands it.
  void synthetic(std::uint64_t id, std::uint32_t size);

  /// Pre-reserves capacity for `additional` more literal bytes (runs take
  /// none until expanded). Message-sized encodes (envelope framing, block
  /// payloads) call this with their exact size so they append without
  /// reallocating. Container encodes call it once per element, so growth
  /// stays amortized: a buffer that must grow at least doubles.
  void reserve(std::size_t additional) {
    const std::size_t needed = buf_.size() + additional;
    if (needed > buf_.capacity()) {
      buf_.reserve(std::max(needed, 2 * buf_.capacity()));
    }
  }

  /// Bytes encoded so far, runs included.
  [[nodiscard]] std::size_t size() const { return buf_.size() + run_bytes_; }

  /// The full wire bytes, every run expanded (in place, once).
  [[nodiscard]] const Bytes& data() {
    expand();
    return buf_;
  }
  [[nodiscard]] Bytes take() {
    expand();
    return std::move(buf_);
  }

  /// The compact form: no body byte is ever written.
  [[nodiscard]] CompactBytes take_compact() {
    run_bytes_ = 0;
    return {std::move(buf_), std::move(runs_)};
  }

 private:
  void put_le(std::uint64_t v, int width);
  void expand();

  Bytes buf_;
  BodyRuns runs_;
  std::size_t run_bytes_ = 0;  ///< total size of runs_
};

/// Reads values back in the order they were encoded; bounds-checked. Given
/// the runs of a compact encoding (`data` then holds its literal bytes), it
/// reads as if the runs were expanded, with one restriction: a body is only
/// consumed by a skip() at its exact offset and of its exact size. Any
/// other read that would touch body bytes throws CodecError.
class Decoder {
 public:
  explicit Decoder(BytesView data, std::span<const BodyRun> runs = {});

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  bool boolean();
  Bytes bytes();
  std::string str();
  /// Reads exactly `size` raw bytes (no length prefix).
  Bytes raw(std::size_t size);
  /// Skips `size` bytes (bounds-checked) without materializing them — used
  /// for synthetic transaction bodies, which are derived from the record.
  /// At a run's offset it must consume exactly that run.
  void skip(std::size_t size);

  /// Reads a u32 element count and rejects counts that could not possibly
  /// fit in the remaining input (each element encodes to at least
  /// `min_element_bytes`). Decoders of untrusted bytes use this before
  /// `reserve(count)` so a garbage count cannot force a huge allocation.
  std::uint32_t count(std::size_t min_element_bytes);

  [[nodiscard]] bool exhausted() const {
    return pos_ == data_.size() && next_run_ == runs_.size();
  }
  /// Bytes left to read, pending run bytes included.
  [[nodiscard]] std::size_t remaining() const {
    return data_.size() - pos_ + run_bytes_left_;
  }

 private:
  std::uint64_t get_le(int width);
  void need(std::size_t count) const;
  /// Points `limit_` at the next run (or the end of the literal bytes).
  void next_limit();

  BytesView data_;
  std::span<const BodyRun> runs_;
  std::size_t pos_ = 0;            ///< into data_ (literal bytes)
  std::size_t limit_ = 0;          ///< literal reads must end by here
  std::size_t next_run_ = 0;       ///< first run not yet skipped
  std::uint64_t run_bytes_done_ = 0;  ///< body bytes skipped so far
  std::uint64_t run_bytes_left_ = 0;  ///< body bytes still pending
};

}  // namespace sftbft
