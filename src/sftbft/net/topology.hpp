// Network topology: regions, delay matrix, stragglers, jitter.
//
// Models the paper's Fig. 6 experimental geometries:
//  * symmetric  — replicas split evenly into 3 regions (34/33/33 at n = 100)
//                 with a fixed inter-region delay δ;
//  * asymmetric — regions A (45), B (45), C (10); A↔B is 20 ms while C↔A and
//                 C↔B are δ (the "far minority region" that drives the 1.7f
//                 strength cap of Fig. 7b).
// Per-replica `extra_delay` models stragglers ("out-of-sync due to slow
// network/computation", Sec. 4.1); it is charged on both send and receive.
#pragma once

#include <cstdint>
#include <vector>

#include "sftbft/common/types.hpp"

namespace sftbft::net {

class Topology {
 public:
  /// Uniform topology: every pair of distinct replicas has `delay`.
  static Topology uniform(std::uint32_t n, SimDuration delay);

  /// Regions with per-pair region delays. `region_sizes` partitions [0, n);
  /// `region_delay[a][b]` is the one-way delay between regions a and b, and
  /// `region_delay[a][a]` the intra-region delay.
  static Topology regions(const std::vector<std::uint32_t>& region_sizes,
                          const std::vector<std::vector<SimDuration>>& region_delay);

  /// Paper Fig. 6 symmetric setting: 3 regions as even as possible, delay
  /// `delta` across regions, `intra` within a region.
  static Topology symmetric3(std::uint32_t n, SimDuration delta,
                             SimDuration intra);

  /// Paper Fig. 6 asymmetric setting: regions of sizes a/b/c; `ab` between
  /// the two large regions, `delta` from C to either, `intra` within regions.
  static Topology asymmetric3(std::uint32_t a, std::uint32_t b,
                              std::uint32_t c, SimDuration ab,
                              SimDuration delta, SimDuration intra);

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(region_of_.size());
  }

  [[nodiscard]] std::uint32_t region_of(ReplicaId id) const {
    return region_of_[id];
  }

  /// Base one-way delay from `from` to `to`, including both ends' straggler
  /// surcharge. Zero for self-delivery.
  [[nodiscard]] SimDuration base_delay(ReplicaId from, ReplicaId to) const;

  /// Marks `id` as a straggler adding `extra` to each of its sends/receives.
  void set_extra_delay(ReplicaId id, SimDuration extra);

  [[nodiscard]] SimDuration extra_delay(ReplicaId id) const {
    return extra_delay_[id];
  }

  /// Largest base delay over all ordered pairs — a lower bound for the
  /// partial-synchrony Δ used by the network.
  [[nodiscard]] SimDuration max_base_delay() const;

 private:
  Topology() = default;

  std::vector<std::uint32_t> region_of_;
  std::vector<std::vector<SimDuration>> region_delay_;
  std::vector<SimDuration> extra_delay_;
};

}  // namespace sftbft::net
