// Observer: one deployment's observability hub.
//
// The Deployment owns (at most) one Observer and stamps a pointer to it
// into every per-replica config (core, streamlet, dissem, storage,
// pacemaker, sync). A null pointer is the disabled path — every
// instrumentation site is `if (obs_) obs_->...`, one predictable branch —
// so runs without observability pay (near) nothing. This is deliberately
// per-deployment state, NOT a process global: bench sweeps run independent
// scenarios concurrently (bench_util --jobs), and each gets its own
// Observer on its own thread.
//
// Three faculties, independently switchable:
//   * metrics  — always on when the Observer exists: per-replica Registry
//     (enum-indexed counters/gauges/histograms), mergeable across replicas;
//   * trace    — full-run TraceBuffer, serializable as Chrome trace-event
//     JSON (Perfetto-loadable);
//   * flight   — bounded per-replica rings of recent events, dumpable as a
//     readable timeline when a run fails (auditor violation / no progress).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sftbft/common/types.hpp"
#include "sftbft/net/envelope.hpp"
#include "sftbft/obs/metrics.hpp"
#include "sftbft/obs/trace.hpp"

namespace sftbft::obs {

/// Per-label delay distributions, recorded by the transport for every
/// scheduled (non-self) delivery. `transit` is send -> arrival end to end;
/// `queueing` is the share beyond pure propagation (serialization at the
/// link's bandwidth + jitter + any pre-GST hold).
struct WireDelayStats {
  Histogram transit_us;
  Histogram queueing_us;
};

struct ObsConfig {
  /// Master switch: off = the Deployment creates no Observer at all and
  /// every instrumentation site is a null-pointer check.
  bool enabled = false;
  /// Record the full event journal (chrome_trace_json output).
  bool trace = false;
  /// Per-replica flight-recorder ring size; 0 disables the recorder.
  std::size_t flight_capacity = 256;
};

class Observer {
 public:
  Observer(ObsConfig config, std::uint32_t n);

  // --- metrics (always live) ---
  void count(ReplicaId replica, Counter c, std::uint64_t delta = 1) {
    registries_[replica].add(c, delta);
  }
  void gauge(ReplicaId replica, Gauge g, std::int64_t value) {
    registries_[replica].set(g, value);
  }
  void observe(ReplicaId replica, Hist h, std::int64_t value) {
    registries_[replica].observe(h, value);
  }
  [[nodiscard]] const Registry& registry(ReplicaId replica) const {
    return registries_[replica];
  }
  /// All replicas folded into one Registry (histograms bucket-merged).
  [[nodiscard]] Registry merged() const;

  // --- wire delays (fed by net::SimTransport, indexed by net::WireLabel) ---
  void observe_wire(net::WireLabel label, SimDuration transit_us,
                    SimDuration queueing_us) {
    WireDelayStats& stats = wire_[static_cast<std::size_t>(label)];
    stats.transit_us.record(transit_us);
    stats.queueing_us.record(queueing_us);
  }
  /// The labels that saw a delivery, by name (the artifacts' key order).
  [[nodiscard]] std::map<std::string, WireDelayStats> wire_delays() const;

  // --- events ---
  /// True when emit() retains events (callers may skip building one).
  [[nodiscard]] bool recording() const {
    return config_.trace || flight_ != nullptr;
  }
  void emit(const TraceEvent& event) {
    if (config_.trace) trace_.append(event);
    if (flight_) flight_->append(event);
  }
  /// Trace-buffer-only append for high-rate net events (per-message flow
  /// arrows and send/recv spans): they would churn the flight rings out of
  /// the consensus-level timeline the post-mortem dumps exist for.
  void emit_trace_only(const TraceEvent& event) {
    if (config_.trace) trace_.append(event);
  }

  [[nodiscard]] bool tracing() const { return config_.trace; }
  [[nodiscard]] const TraceBuffer& trace() const { return trace_; }
  /// The full trace as Chrome trace-event JSON; a non-empty
  /// `other_data_json` object rides along as the trace's "otherData".
  [[nodiscard]] std::string trace_json(
      const std::string& other_data_json = {}) const;

  [[nodiscard]] FlightRecorder* flight() { return flight_.get(); }
  [[nodiscard]] const FlightRecorder* flight() const { return flight_.get(); }
  /// Flight-recorder timeline ("" when the recorder is disabled).
  [[nodiscard]] std::string flight_dump() const {
    return flight_ ? flight_->dump() : std::string{};
  }

  [[nodiscard]] std::uint32_t n() const {
    return static_cast<std::uint32_t>(registries_.size());
  }
  [[nodiscard]] const ObsConfig& config() const { return config_; }

 private:
  ObsConfig config_;
  std::vector<Registry> registries_;
  std::array<WireDelayStats, net::kWireLabelCount> wire_{};
  TraceBuffer trace_;
  std::unique_ptr<FlightRecorder> flight_;
};

}  // namespace sftbft::obs
