// Simulated byte-level transport under partial synchrony.
//
// Substitution note (README.md "Simulation substitutions"): the paper runs
// 100 EC2 instances exchanging real serialized messages with injected
// inter-region delays; we reproduce the same delay geometry on a
// discrete-event scheduler, over the same bytes. A frame sent at `s`
// arrives at
//
//     max(s, GST) + base_delay(from, to) + frame_bytes/bandwidth + jitter
//
// where `frame_bytes` is the EXACT encoded Envelope size
// (Envelope::encoded_size, no estimates), which realizes the
// partial-synchrony contract: after the (configurable) Global Stabilization
// Time every message arrives within Δ. Before GST the adversary may delay
// or drop messages via a link filter, partition the network, or flip bits
// on selected links (CorruptSpec) — corrupted frames fail Envelope::decode
// at the receiver and are counted as corrupt drops, never delivered.
//
// This replaces the old per-protocol SimNetwork<Message> templates: both
// stacks now share one instance of this class per deployment.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sftbft/common/rng.hpp"
#include "sftbft/common/types.hpp"
#include "sftbft/net/corrupt.hpp"
#include "sftbft/net/stats.hpp"
#include "sftbft/net/topology.hpp"
#include "sftbft/net/transport.hpp"
#include "sftbft/sim/scheduler.hpp"

namespace sftbft::obs {
class Observer;
}  // namespace sftbft::obs

namespace sftbft::net {

/// Test hook deciding per-link delivery. Return false to drop the message.
using LinkFilter = std::function<bool(ReplicaId from, ReplicaId to)>;

struct NetConfig {
  /// Uniform jitter in [0, jitter] added per message (models OS/queueing
  /// noise; drives QC-membership diversity in the experiments).
  SimDuration jitter = 0;
  /// Distance-proportional jitter: an extra uniform [0, jitter_frac * base]
  /// per message. Long WAN paths have proportionally larger delay variance
  /// (more hops/queues); without this, large δ makes arrival order fully
  /// deterministic by region and QC membership loses all diversity.
  double jitter_frac = 0.0;
  /// Link bandwidth in bytes per second; 0 means unlimited (pure latency).
  std::uint64_t bandwidth_bytes_per_sec = 0;
  /// Global Stabilization Time; messages sent earlier arrive no earlier than
  /// gst + base delay. 0 means the network is synchronous from the start.
  SimTime gst = 0;
};

class SimTransport final : public Transport {
 public:
  SimTransport(sim::Scheduler& sched, Topology topology, NetConfig config,
               std::uint64_t seed);

  void set_handler(ReplicaId id, Handler handler) override {
    handlers_[id] = std::move(handler);
  }
  void disconnect(ReplicaId id) override { handlers_[id] = nullptr; }
  [[nodiscard]] bool connected(ReplicaId id) const override {
    return static_cast<bool>(handlers_[id]);
  }

  void send(ReplicaId to, Envelope env,
            std::optional<WireLabel> label = std::nullopt) override;
  void broadcast(Envelope env, bool include_self,
                 std::optional<WireLabel> label = std::nullopt) override;

  [[nodiscard]] std::uint32_t size() const override {
    return topology_.size();
  }
  [[nodiscard]] MessageStats& stats() override { return stats_; }
  [[nodiscard]] const MessageStats& stats() const override { return stats_; }
  [[nodiscard]] sim::Scheduler& scheduler() override { return sched_; }

  /// Installs (or clears, if empty) an adversarial link filter.
  void set_link_filter(LinkFilter filter) { filter_ = std::move(filter); }

  /// Installs pre-GST byte corruption on `sender`'s outbound links (see
  /// CorruptSpec). Corruption draws come from a dedicated RNG stream so the
  /// jitter geometry of unaffected links is unchanged.
  void set_corruption(ReplicaId sender, CorruptSpec spec) {
    corruption_[sender] = std::move(spec);
  }

  [[nodiscard]] const Topology& topology() const { return topology_; }

  /// Wires the deployment's Observer (null = no instrumentation). With an
  /// observer every scheduled (non-self) delivery records per-WireType
  /// transit/queueing histograms; with tracing on it additionally emits a
  /// Chrome flow arrow ('s' at the send site -> 'f' at the receiver-side
  /// handling span) under a unique flow id.
  void set_observer(obs::Observer* observer) { obs_ = observer; }

 private:
  /// Charges and schedules one delivery of `env`. Clean links deliver the
  /// shared envelope itself (one immutable object per send or broadcast, so
  /// receivers may share views derived from it: Envelope::derived). `size`
  /// is its encoded_size(), taken once per send or broadcast. `frame` is
  /// the send's lazily built frame, filled by the first link that corrupts
  /// and reused by the rest.
  void route(ReplicaId from, ReplicaId to, WireLabel label,
             const std::shared_ptr<const Envelope>& env, std::size_t size,
             std::optional<Bytes>& frame);
  /// Byte-level receive for corrupted frames: decode (CRC + framing) into a
  /// fresh envelope or drop as corrupt.
  void deliver_bytes(ReplicaId to, const Bytes& frame);
  void deliver(ReplicaId to, const Envelope& env, std::size_t frame_bytes);
  /// Draws this link's corruption; on a hit returns a damaged copy of the
  /// frame (building `frame` first if no link has yet), else null.
  [[nodiscard]] std::shared_ptr<const Bytes> maybe_corrupt(
      ReplicaId from, ReplicaId to, const Envelope& env,
      std::optional<Bytes>& frame);

  sim::Scheduler& sched_;
  Topology topology_;
  NetConfig config_;
  Rng rng_;
  Rng corrupt_rng_;
  MessageStats stats_;
  LinkFilter filter_;
  std::unordered_map<ReplicaId, CorruptSpec> corruption_;
  std::vector<Handler> handlers_;
  obs::Observer* obs_ = nullptr;
  std::uint64_t next_flow_id_ = 1;
};

}  // namespace sftbft::net
