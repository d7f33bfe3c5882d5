// Scenario configuration: paper Sec. 4 experimental setups as data.
//
// A Scenario is engine-agnostic: the `protocol` selector picks which
// chained-BFT backend (DiemBFT, chained HotStuff, or Streamlet) the same
// topology, workload, fault list, and measurement window run on — the
// paper's genericity claim (Secs. 3.2-3.4, Appendix D) made operational.
// run_scenario() drives any protocol through the unified
// engine::Deployment API.
//
// Calibration (see README.md "Calibration"): we use a lean per-round leader
// processing budget (default 80 ms) rather than Diem production's ~1.5 s
// pipeline, so absolute latencies are ~5x smaller than the paper's while
// every shape (1.1f jump, straggler tail at 2f, the asymmetric 1.7f cap,
// the Fig. 8 tradeoff/merge) emerges from the same mechanisms. The pacemaker
// timeout defaults to the scenario's expected round duration plus a margin;
// in the asymmetric topology that margin is what makes region-C leaders time
// out at δ = 200 ms but not at δ = 100 ms — exactly the paper's observation.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sftbft/engine/deployment.hpp"
#include "sftbft/harness/metrics.hpp"
#include "sftbft/obs/critical_path.hpp"

namespace sftbft::harness {

/// Identity card of one scenario run: enough to decide whether two
/// artifacts (a BENCH json, a trace, a checked-in baseline) came from
/// comparable configurations. `config_digest` is an FNV-1a hash over the
/// canonical parameter string — any topology/workload/fault knob change
/// changes it, so the perf gate can refuse apples-to-oranges comparisons
/// instead of reporting nonsense deltas.
struct RunManifest {
  std::uint64_t seed = 0;
  std::string engine;  ///< protocol_name(): "diembft" | "hotstuff" | ...
  std::uint32_t n = 0;
  std::uint64_t config_digest = 0;

  /// {"seed":..,"engine":"..","n":..,"config_digest":".."} — the digest is
  /// rendered as a hex string (JSON numbers lose 64-bit precision).
  [[nodiscard]] std::string render_json() const;
};

/// Spreads `count` placements over the replica id space [1, n), keeping
/// id 0 free (the metrics/proof anchor every bench reads). Preferred ids
/// are stride-spaced; an id already claimed (an explicit fault, or a
/// collision when count > n - 1) probes forward to the next free id rather
/// than silently producing fewer placements, and placement stops only when
/// every non-anchor id is claimed. `taken(id)` reports ids that are
/// unavailable; chosen ids are reported back through it implicitly — the
/// caller marks them. Returns the chosen ids in placement order.
///
/// This is the single placement policy behind Scenario's byzantine_count,
/// corrupt_count, and crash_restart_count knobs (formerly three hand-rolled
/// copies of the loop).
[[nodiscard]] std::vector<ReplicaId> spread_placements(
    std::uint32_t n, std::uint32_t count,
    const std::function<bool(ReplicaId)>& taken);

struct Scenario {
  std::string name = "scenario";
  /// Which chained-BFT engine runs the scenario. Everything below applies
  /// to every protocol; fields marked "DiemBFT"/"chained" or "Streamlet"
  /// only affect that family.
  engine::Protocol protocol = engine::Protocol::DiemBft;
  std::uint32_t n = 100;
  /// Protocol variant; for Streamlet, Plain = textbook Streamlet and any
  /// SFT mode = SFT-Streamlet (strong-votes with height markers).
  consensus::CoreMode mode = consensus::CoreMode::SftMarker;
  consensus::CountingRule counting = consensus::CountingRule::Sft;
  /// Appendix-B FBFT baseline (quadratic comparator): plain votes counted
  /// directly, late votes multicast by leaders. Forces mode = Plain.
  bool fbft = false;

  enum class Topo { Uniform, Symmetric3, Asymmetric3 };
  Topo topo = Topo::Symmetric3;
  SimDuration delta = millis(100);    ///< inter-region δ (Fig. 6)
  SimDuration ab_delay = millis(20);  ///< A<->B in the asymmetric setting
  SimDuration intra = millis(1);
  std::uint32_t asym_a = 45, asym_b = 45, asym_c = 10;
  SimDuration jitter = millis(40);
  /// Distance-proportional jitter fraction (see net::NetConfig::jitter_frac).
  double jitter_frac = 0.25;
  /// Global Stabilization Time (0 = synchronous from the start). Pre-GST
  /// the adversary owns the network: link filters, partitions, and the
  /// Corrupt fault's bit flips all operate before this instant.
  SimTime gst = 0;

  /// Persistent per-replica slowness (network/computation heterogeneity),
  /// two-tier. Fast replicas draw extra delay ~ U[0, hetero_fast_max]: the
  /// slow end of this tier is *marginally* excluded from QCs round by round,
  /// tilting the Fig. 7a middle section. Medium replicas (a
  /// hetero_medium_fraction minority) draw ~ U[hetero_medium_lo,
  /// hetero_medium_hi]: excluded when remote from the leader, included when
  /// their own region leads — the paper's "stragglers" whose inclusion
  /// cadence sets the 2f-strong tail. hetero_fast_max == 0 disables both.
  SimDuration hetero_fast_max = 0;
  double hetero_medium_fraction = 0.25;
  SimDuration hetero_medium_lo = 0;
  SimDuration hetero_medium_hi = 0;

  /// Stragglers (Sec. 4.1): `straggler_count` replicas, spread evenly over
  /// ids, whose extra delay is `straggler_extra` (overriding heterogeneity).
  /// They mostly miss QC cuts and drive the 2f-strong latency tail.
  std::uint32_t straggler_count = 0;
  SimDuration straggler_extra = 0;

  /// Leader-side processing per round (DiemBFT; calibration constant).
  SimDuration leader_processing = millis(80);
  /// Pacemaker timer; 0 = derive from topology (see default_timeout()).
  SimDuration base_timeout = 0;
  /// Fig. 8 knob: leader extra wait after quorum before sealing the QC.
  SimDuration extra_wait = 0;

  /// Streamlet: assumed max network delay Δ (lock-step rounds last 2Δ).
  SimDuration streamlet_delta_bound = millis(50);
  /// Streamlet: forward unseen messages to all (the O(n^3) echo).
  bool streamlet_echo = true;

  std::size_t max_batch = 100;        ///< txns per block (modelled)
  std::uint32_t txn_size_bytes = 4500;///< so a block is ~450 KB like the paper
  /// Sustained client arrivals (Poisson, per replica); 0 = the legacy
  /// one-shot top-up, which saturates only the first ~4 blocks. Benches
  /// comparing payload bytes across the whole run set this so inline-mode
  /// proposals stay block-sized (the paper's "sufficiently many
  /// transactions" assumption held for the full window).
  SimDuration mean_interarrival = 0;
  bool verify_signatures = true;
  Round interval_window = 0;
  bool attach_commit_log = true;

  /// Batch dissemination data plane (sftbft::dissem): digest-referencing
  /// proposals, continuous batch push off the critical path, admission
  /// front-end + client swarm in place of the bench workload generator.
  /// Applies to every protocol. The remaining dissem knobs ride in `dissem`
  /// (its `enabled` field is overwritten by this flag).
  bool dissemination = false;
  dissem::DissemConfig dissem;

  SimDuration duration = seconds(300);   ///< paper: "at least 5 minutes"
  SimDuration warmup = seconds(5);       ///< exclude startup blocks
  SimDuration tail = seconds(30);        ///< exclude blocks near the end
  std::uint64_t seed = 42;

  /// Observability (sftbft::obs): metrics registry, Chrome-trace events,
  /// flight recorder. Off by default — the deployment then builds no
  /// Observer and the instrumented hot paths cost one null test each.
  obs::ObsConfig obs;
  /// When non-empty, run_scenario writes the Chrome-trace JSON here after
  /// the run (implies obs.enabled + obs.trace).
  std::string trace_path;
  /// Wire a SafetyAuditor over the run; its verdicts land in
  /// ScenarioResult::auditor_violations, and the first violation snapshots
  /// the flight recorder into ScenarioResult::flight_dump.
  bool audit = false;

  /// Per-replica faults (shared FaultSpec mechanism — the same list drives
  /// crash/Byzantine scenarios identically on both engines).
  std::vector<engine::FaultSpec> faults;

  /// Byzantine coalition (adversary layer): `byzantine_count` replicas,
  /// spread over [1, n) — id 0 stays honest as the metrics anchor — all run
  /// the `byzantine` strategy spec, coordinated through one shared
  /// adversary::Coalition. Merged into `faults` by to_deployment_config();
  /// explicit fault entries win. See sftbft/adversary/strategy.hpp.
  std::uint32_t byzantine_count = 0;
  adversary::ByzantineSpec byzantine;

  /// Byte-corruption churn (transport layer): `corrupt_count` replicas,
  /// spread over [1, n) like the Byzantine placement, whose outbound links
  /// flip bits pre-GST per `corrupt` (FaultSpec::Kind::Corrupt). Receivers
  /// reject the frames at the Envelope CRC and the transport counts them
  /// (ScenarioResult::corrupt_drops). Requires `gst` > 0 — corruption is a
  /// pre-GST network fault, and the Deployment rejects the no-op
  /// combination. Merged into `faults` by to_deployment_config(); explicit
  /// fault entries win.
  std::uint32_t corrupt_count = 0;
  net::CorruptSpec corrupt;

  /// Crash-recovery churn (storage layer): `crash_restart_count` replicas,
  /// spread over the id space (avoiding id 0, the metrics replica), crash
  /// at staggered times and restart `crash_restart_downtime` later from
  /// their durable ReplicaStore. Merged into `faults` by
  /// to_deployment_config(); explicit fault entries win.
  std::uint32_t crash_restart_count = 0;
  SimTime crash_restart_first = seconds(30);
  SimDuration crash_restart_downtime = seconds(10);
  SimDuration crash_restart_stagger = seconds(15);
  /// Snapshot + WAL-truncation cadence for persistent replicas.
  std::uint64_t snapshot_interval_blocks = 64;
  /// Give every replica a ReplicaStore (persistence-overhead experiments),
  /// not just the crash-restart ones.
  bool persist_all = false;

  [[nodiscard]] std::uint32_t f() const { return (n - 1) / 3; }

  /// The fault list with crash-restart churn merged in (what
  /// to_deployment_config() ships).
  [[nodiscard]] std::vector<engine::FaultSpec> effective_faults() const;

  /// Expected (no-fault) round duration: leader processing + one vote leg +
  /// one proposal leg over the widest non-straggler link.
  [[nodiscard]] SimDuration expected_round() const;

  /// Derived pacemaker timeout (used when base_timeout == 0).
  [[nodiscard]] SimDuration default_timeout() const;

  /// Builds the network topology including stragglers.
  [[nodiscard]] net::Topology build_topology() const;

  /// Produces the full deployment configuration for the selected engine.
  [[nodiscard]] engine::DeploymentConfig to_deployment_config() const;

  /// Strength levels x = 1.0f, 1.1f, ..., 2.0f (deduplicated, ascending) —
  /// the x-axis of Fig. 7.
  [[nodiscard]] std::vector<std::uint32_t> strength_levels() const;

  /// The run's identity card (see RunManifest). Deterministic: same
  /// scenario fields -> same digest, across processes and platforms.
  [[nodiscard]] RunManifest manifest() const;
};

/// Runs a scenario to completion and reports per-level latencies plus a
/// ledger summary from replica 0.
struct ScenarioResult {
  std::vector<StrengthLatencyTracker::LevelStats> latency;
  LedgerSummary summary;
  /// Regular-commit latency distribution (micros; creation -> each
  /// replica's first commit) over in-window blocks — p50/p99 companions to
  /// summary.mean_regular_latency_s. Always populated (histograms live in
  /// the harness tracker, not behind the obs switch).
  obs::HistogramSummary commit_latency;
  std::uint64_t window_blocks = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t total_message_bytes = 0;
  /// Appendix-B FBFT baseline traffic (0 for SFT runs).
  std::uint64_t extra_vote_messages = 0;
  /// messages per committed block (the Sec. 3.2 complexity metric).
  double messages_per_block = 0;
  /// Frames corrupted in flight / rejected at the receiver's Envelope
  /// decode (Corrupt faults), and bytes the broadcast path saved by
  /// encoding each frame once.
  std::uint64_t corrupt_injected = 0;
  std::uint64_t corrupt_drops = 0;
  std::uint64_t broadcast_saved_bytes = 0;
  /// Per-label traffic (exact frame bytes, keyed by net::WireLabel name;
  /// only labels that carried frames) — what bench/tab_msg_complexity
  /// ships as BENCH_wire.json.
  std::map<std::string, net::MessageStats::TypeStats> traffic_by_type;
  /// Per-replica egress (send-side frame bytes, one charge per recipient;
  /// index = replica id) and the busiest sender's total — the
  /// leader-bandwidth metric the dissemination layer attacks.
  std::vector<std::uint64_t> egress_by_replica;
  std::uint64_t max_egress_bytes = 0;
  /// Frames that passed the Envelope CRC but failed payload decode at the
  /// engine demux (previously counted by net::MessageStats but dropped on
  /// the floor here).
  std::uint64_t decode_drops = 0;
  /// Observability outputs (zero/empty unless the scenario enabled them).
  /// Merged counter snapshot across replicas — the full metric vocabulary,
  /// zeros included, so cross-engine key sets compare exactly.
  std::map<std::string, std::uint64_t> counters;
  /// SafetyAuditor verdict count (scenario.audit) and the flight-recorder
  /// timeline captured at the first violation — or at scenario end when the
  /// run made no progress (window_blocks == 0) with a recorder attached.
  /// A zero-commit run under a clean fault spec additionally prints the
  /// dump (with the counter snapshot) to stderr — a silent stall is a
  /// harness bug, not an experiment.
  std::uint64_t auditor_violations = 0;
  std::string flight_dump;
  /// Per-label delivery-delay distributions (micros), keyed by
  /// net::WireLabel name ("proposal", "vote", "batch_push", ...). `transit` is
  /// send -> delivery; `queueing` is transit minus the topology's base
  /// latency (bandwidth + jitter + heterogeneity). Populated when the
  /// scenario enabled observability.
  struct WireDelaySummary {
    obs::HistogramSummary transit;
    obs::HistogramSummary queueing;
  };
  std::map<std::string, WireDelaySummary> wire_delays;
  /// Commit critical-path attribution from the trace (empty unless the
  /// scenario enabled tracing).
  obs::CriticalPathResult critical_path;
};

ScenarioResult run_scenario(const Scenario& scenario);

}  // namespace sftbft::harness
