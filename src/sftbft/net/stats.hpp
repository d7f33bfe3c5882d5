// Message accounting.
//
// The paper's central efficiency claim (Sec. 3.2, App. B) is that
// SFT-DiemBFT keeps *linear* amortized message complexity per block decision
// while the FBFT adaptation is quadratic. MessageStats counts every protocol
// message and its wire size so bench/tab_msg_complexity can measure
// messages-per-committed-block directly instead of asserting the asymptotics.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sftbft/net/envelope.hpp"

namespace sftbft::net {

class MessageStats {
 public:
  struct TypeStats {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
  };

  /// Records one message under `label` with its exact on-wire frame size.
  void record(WireLabel label, std::size_t frame_bytes) {
    TypeStats& entry = per_label_[static_cast<std::size_t>(label)];
    entry.count += 1;
    entry.bytes += frame_bytes;
    total_count_ += 1;
    total_bytes_ += frame_bytes;
  }

  [[nodiscard]] std::uint64_t total_count() const { return total_count_; }
  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }

  /// Records `frame_bytes` of egress charged to sending replica `from`
  /// (one call per recipient — a broadcast to n-1 peers charges the sender
  /// n-1 frames, which is precisely the leader-bandwidth cost the
  /// dissemination layer attacks).
  void record_egress(std::uint32_t from, std::size_t frame_bytes) {
    if (egress_bytes_.size() <= from) egress_bytes_.resize(from + 1, 0);
    egress_bytes_[from] += frame_bytes;
  }

  /// Egress bytes per sending replica (index = replica id; may be shorter
  /// than n if trailing replicas never sent).
  [[nodiscard]] const std::vector<std::uint64_t>& egress_by_replica() const {
    return egress_bytes_;
  }

  /// The busiest sender's egress — with round-robin leadership this is the
  /// per-leader bandwidth bound the scale-out claims are about.
  [[nodiscard]] std::uint64_t max_egress_bytes() const {
    std::uint64_t max = 0;
    for (const std::uint64_t bytes : egress_bytes_) max = std::max(max, bytes);
    return max;
  }

  /// Frames the transport corrupted in flight (FaultSpec::Kind::Corrupt).
  void record_corrupt_injected() { ++corrupt_injected_; }
  [[nodiscard]] std::uint64_t corrupt_injected() const {
    return corrupt_injected_;
  }

  /// Frames a receiver rejected at the byte level (Envelope::decode threw
  /// CodecError: CRC mismatch, bad tag, truncation). Never delivered.
  void record_corrupt_drop() { ++corrupt_drops_; }
  [[nodiscard]] std::uint64_t corrupt_drops() const { return corrupt_drops_; }

  /// Well-framed envelopes whose *payload* failed to decode as the claimed
  /// message type (engine-level demux rejection).
  void record_decode_drop() { ++decode_drops_; }
  [[nodiscard]] std::uint64_t decode_drops() const { return decode_drops_; }

  /// Bytes a per-recipient encoder would have serialized on top of one
  /// frame per broadcast ((recipients - 1) x frame size); the shared
  /// broadcast envelope serializes none of them.
  void record_broadcast_savings(std::uint64_t bytes) {
    broadcast_saved_bytes_ += bytes;
  }
  [[nodiscard]] std::uint64_t broadcast_saved_bytes() const {
    return broadcast_saved_bytes_;
  }

  [[nodiscard]] TypeStats for_type(WireLabel label) const {
    return per_label_[static_cast<std::size_t>(label)];
  }

  /// The labels that carried frames, by name (the artifacts' key order).
  [[nodiscard]] std::map<std::string, TypeStats> by_type() const {
    std::map<std::string, TypeStats> rendered;
    for (std::size_t i = 0; i < kWireLabelCount; ++i) {
      if (per_label_[i].count > 0) {
        rendered.emplace(kWireLabelNames[i], per_label_[i]);
      }
    }
    return rendered;
  }

 private:
  std::array<TypeStats, kWireLabelCount> per_label_{};
  std::vector<std::uint64_t> egress_bytes_;
  std::uint64_t total_count_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t corrupt_injected_ = 0;
  std::uint64_t corrupt_drops_ = 0;
  std::uint64_t decode_drops_ = 0;
  std::uint64_t broadcast_saved_bytes_ = 0;
};

}  // namespace sftbft::net
