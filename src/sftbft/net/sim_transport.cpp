#include "sftbft/net/sim_transport.hpp"

#include <algorithm>
#include <optional>
#include <unordered_set>
#include <utility>

#include "sftbft/obs/observer.hpp"

namespace sftbft::net {

namespace {
/// Net events live on dedicated per-peer lanes far above any block height:
/// sender spans on lane (base + to), receiver spans on lane (base + from),
/// so message traffic never interleaves with block-lifecycle tracks.
constexpr std::uint64_t kNetLaneBase = std::uint64_t{1} << 20;
}  // namespace

SimTransport::SimTransport(sim::Scheduler& sched, Topology topology,
                           NetConfig config, std::uint64_t seed)
    : sched_(sched),
      topology_(std::move(topology)),
      config_(config),
      rng_(seed),
      // Dedicated corruption stream: enabling Corrupt faults must not
      // perturb the jitter draws (and thus the delay geometry) of clean
      // links, or every corruption experiment would change the baseline.
      corrupt_rng_(seed ^ 0xC0880F7ULL) {
  handlers_.resize(topology_.size());
}

void SimTransport::send(ReplicaId to, Envelope env,
                        std::optional<WireLabel> label) {
  const WireLabel key = label.value_or(wire_label(env.type));
  const auto shared = std::make_shared<const Envelope>(std::move(env));
  std::optional<Bytes> frame;
  route(shared->sender, to, key, shared, shared->encoded_size(), frame);
}

void SimTransport::broadcast(Envelope env, bool include_self,
                             std::optional<WireLabel> label) {
  const WireLabel key = label.value_or(wire_label(env.type));
  // Every clean recipient shares this one immutable envelope; the frame
  // bytes are built at most once, and only if a corrupted link needs them.
  const auto shared = std::make_shared<const Envelope>(std::move(env));
  std::optional<Bytes> frame;
  const ReplicaId from = shared->sender;
  const std::size_t size = shared->encoded_size();
  std::uint32_t recipients = 0;
  for (ReplicaId to = 0; to < topology_.size(); ++to) {
    if (to == from && !include_self) continue;
    route(from, to, key, shared, size, frame);
    ++recipients;
  }
  if (recipients > 1) {
    stats_.record_broadcast_savings(
        static_cast<std::uint64_t>(recipients - 1) * size);
  }
}

void SimTransport::route(ReplicaId from, ReplicaId to, WireLabel label,
                         const std::shared_ptr<const Envelope>& env,
                         std::size_t size, std::optional<Bytes>& frame) {
  stats_.record(label, size);
  if (from != to) stats_.record_egress(from, size);
  if (filter_ && !filter_(from, to)) return;
  if (from == to) {
    // Self-sends never touch a physical link: immediate, uncorrupted.
    deliver(to, *env, size);
    return;
  }
  const std::shared_ptr<const Bytes> corrupted =
      maybe_corrupt(from, to, *env, frame);
  const SimTime start = std::max(sched_.now(), config_.gst);
  const SimDuration base = topology_.base_delay(from, to);
  SimDuration delay = base;
  if (config_.bandwidth_bytes_per_sec > 0) {
    delay += static_cast<SimDuration>(
        (static_cast<double>(size) /
         static_cast<double>(config_.bandwidth_bytes_per_sec)) *
        1e6);
  }
  if (config_.jitter > 0) delay += rng_.uniform(0, config_.jitter);
  if (config_.jitter_frac > 0 && base > 0) {
    delay += rng_.uniform(
        0, static_cast<SimDuration>(config_.jitter_frac *
                                    static_cast<double>(base)));
  }
  if (obs_ != nullptr) {
    // Delays are fixed at schedule time, so the delivery-side accounting can
    // happen here: end-to-end transit plus its queueing share (everything
    // beyond pure propagation — serialization, jitter, pre-GST hold).
    const SimTime sent_at = sched_.now();
    const SimTime arrive_at = start + delay;
    obs_->observe_wire(label, arrive_at - sent_at, arrive_at - sent_at - base);
    if (obs_->tracing()) {
      // One flow arrow per delivered frame: 's' inside a sender-side
      // in-flight span, 'f' inside a receiver-side handling span.
      const std::uint64_t flow = next_flow_id_++;
      const std::uint64_t send_lane = kNetLaneBase + to;
      const std::uint64_t recv_lane = kNetLaneBase + from;
      const char* name = wire_label_name(label);
      obs_->emit_trace_only(obs::span_event(
          "net", name, from, send_lane, sent_at, arrive_at,
          {"bytes", static_cast<std::uint64_t>(size)}, {"to", to}));
      obs_->emit_trace_only(
          obs::flow_start_event("net", name, from, send_lane, sent_at, flow));
      obs_->emit_trace_only(obs::span_event("net", name, to, recv_lane,
                                            arrive_at, arrive_at,
                                            {"from", from}));
      obs_->emit_trace_only(obs::flow_finish_event("net", name, to, recv_lane,
                                                   arrive_at, flow));
    }
  }
  if (corrupted) {
    // Corrupted in flight: the receiver must confront the damaged bytes.
    sched_.schedule_at(start + delay, [this, to, corrupted] {
      deliver_bytes(to, *corrupted);
    });
  } else {
    sched_.schedule_at(start + delay,
                       [this, to, env, size] { deliver(to, *env, size); });
  }
}

void SimTransport::deliver_bytes(ReplicaId to, const Bytes& frame) {
  if (!handlers_[to]) return;
  Envelope env;
  try {
    env = Envelope::decode(BytesView(frame));
  } catch (const CodecError&) {
    // Flipped bits (or a truncated frame) fail the CRC / framing checks:
    // the receiver rejects the frame instead of crashing on garbage.
    stats_.record_corrupt_drop();
    return;
  }
  handlers_[to](env, frame.size());
}

void SimTransport::deliver(ReplicaId to, const Envelope& env,
                           std::size_t frame_bytes) {
  if (handlers_[to]) handlers_[to](env, frame_bytes);
}

std::shared_ptr<const Bytes> SimTransport::maybe_corrupt(
    ReplicaId from, ReplicaId to, const Envelope& env,
    std::optional<Bytes>& frame) {
  if (corruption_.empty() || sched_.now() >= config_.gst) return nullptr;
  const auto it = corruption_.find(from);
  if (it == corruption_.end()) return nullptr;
  const CorruptSpec& spec = it->second;
  if (!spec.applies_to(to) || !corrupt_rng_.chance(spec.rate)) return nullptr;

  if (!frame) frame = env.encode();
  auto corrupted = std::make_shared<Bytes>(*frame);
  const std::size_t total_bits = corrupted->size() * 8;
  // Clamp to the frame's bit count — a spec's max_flips can exceed a small
  // frame, and the distinct-position sampling below must terminate.
  const std::size_t flips = std::min<std::size_t>(
      1 + static_cast<std::size_t>(
              corrupt_rng_.uniform(0, std::max(1u, spec.max_flips) - 1)),
      total_bits);
  if (flips * 2 >= total_bits) {
    // Shredding more than half the frame: invert everything instead of
    // rejection-sampling near-saturated bit positions.
    for (auto& byte : *corrupted) byte = static_cast<std::uint8_t>(~byte);
  } else {
    // Flip DISTINCT bits: a position drawn twice would cancel itself out
    // and deliver an intact frame under a "corrupted" count. Occupancy is
    // below 1/2, so rejection sampling stays O(flips) expected.
    std::unordered_set<std::size_t> flipped;
    flipped.reserve(flips);
    while (flipped.size() < flips) {
      const auto bit = static_cast<std::size_t>(corrupt_rng_.uniform(
          0, static_cast<std::int64_t>(total_bits) - 1));
      if (!flipped.insert(bit).second) continue;
      (*corrupted)[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
  }
  stats_.record_corrupt_injected();
  return corrupted;
}

}  // namespace sftbft::net
