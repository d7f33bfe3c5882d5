// Host-cost benchmark driver.
//
// Runs one named workload through the library's public API and prints, as
// the last line of stdout, one JSON object:
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
//
// `--trace 0` reports the end-to-end metrics: wall time with observability
// off, plus the simulated-time metrics the paper measures. `--trace 1`
// reports the per-layer metrics: every repetition runs twice, untraced (its
// calls into each layer timed from outside) and traced (obs.enabled +
// obs.trace, for counters, wire delays and the commit critical path); unit
// costs come from timing the layers' public functions on inputs shaped like
// the workload's.
//
// The driver builds each engine::Deployment itself, the way
// harness::run_scenario does, so it can time the constructor, start(),
// every sim::Scheduler::run_one(), its own commit observer and the wrapped
// audit taps. One process runs one workload on one thread. README.md in
// this directory describes the workloads and metrics.
//
// Usage:
//   sftbft_hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--inject stall|trace-drift|corrupt|naive]
// `--inject` breaks the input on purpose so the self-test can check that
// each oracle fires.
#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sftbft/chain/block_tree.hpp"
#include "sftbft/common/crc32.hpp"
#include "sftbft/core/strength.hpp"
#include "sftbft/crypto/sha256.hpp"
#include "sftbft/crypto/signature.hpp"
#include "sftbft/dissem/batch.hpp"
#include "sftbft/engine/deployment.hpp"
#include "sftbft/harness/auditor.hpp"
#include "sftbft/harness/metrics.hpp"
#include "sftbft/harness/scenario.hpp"
#include "sftbft/net/envelope.hpp"
#include "sftbft/obs/critical_path.hpp"
#include "sftbft/storage/mem_backend.hpp"
#include "sftbft/storage/wal.hpp"

namespace {

using namespace sftbft;
using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Keeps timed calls' results observable so the optimizer cannot drop them.
volatile std::uint64_t g_sink = 0;

// ------------------------------------------------------------------ options

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string inject;  ///< "" = none
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--inject stall|trace-drift|corrupt|naive]\n",
               argv0);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && opt.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      opt.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--inject") {
      opt.inject = value;
      if (opt.inject != "stall" && opt.inject != "trace-drift" &&
          opt.inject != "corrupt" && opt.inject != "naive") {
        usage(argv[0]);
      }
    } else {
      usage(argv[0]);
    }
  }
  if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage(argv[0]);
  }
  return opt;
}

// ---------------------------------------------------------------- workloads

struct Workload {
  harness::Scenario scenario;
  /// Strength level whose latency strong_top_p50_s reports.
  std::uint32_t top_level = 0;
  /// No injected fault: frame drops of either kind fail the run.
  bool clean = true;
  /// Repetitions (distinct seeds) pooled into the simulated metrics.
  std::uint32_t sim_reps = 1;
};

/// Streamlet's Δ from the topology: the slowest base link, plus the most
/// jitter the transport can add to it (uniform + distance-proportional),
/// plus the serialization time of the largest frame at the link bandwidth
/// (zero while bandwidth is unlimited).
SimDuration derived_delta_bound(const harness::Scenario& s) {
  const engine::DeploymentConfig config = s.to_deployment_config();
  const SimDuration base = config.topology.max_base_delay();
  const auto distance_jitter = static_cast<SimDuration>(
      config.net.jitter_frac * static_cast<double>(base));
  SimDuration serialization = 0;
  if (config.net.bandwidth_bytes_per_sec > 0) {
    const double max_frame =
        static_cast<double>(s.max_batch) *
            static_cast<double>(s.txn_size_bytes +
                                types::Transaction::kRecordBytes) +
        4096;  // header, QC and frame overhead
    serialization = static_cast<SimDuration>(
        max_frame / static_cast<double>(config.net.bandwidth_bytes_per_sec) *
        1e6);
  }
  return base + config.net.jitter + distance_jitter + serialization;
}

/// SFT-DiemBFT at n = 31 under the geo calibration (Fig. 7 setup): inline
/// ~450 KB proposals kept full by Poisson arrivals, signatures verified.
Workload inline_geo() {
  harness::Scenario s;
  s.name = "inline_geo";
  s.protocol = engine::Protocol::DiemBft;
  s.n = 31;
  s.topo = harness::Scenario::Topo::Symmetric3;
  s.delta = millis(100);
  s.intra = millis(1);
  s.leader_processing = millis(80);
  s.jitter = millis(40);
  s.jitter_frac = 0.25;
  s.hetero_fast_max = millis(35);
  s.hetero_medium_fraction = 0.25;
  s.hetero_medium_lo = millis(40);
  s.hetero_medium_hi = millis(60);
  s.max_batch = 100;
  s.txn_size_bytes = 4500;
  s.mean_interarrival = millis(10);
  s.verify_signatures = true;
  s.duration = seconds(30);
  s.warmup = seconds(3);
  s.tail = seconds(5);
  return {s, 2 * s.f(), true, 8};
}

/// SFT-HotStuff at n = 50 with the dissemination data plane: digest
/// proposals, ~1.1 MB batch pushes, the rate-limited client swarm.
Workload digest_dissem() {
  harness::Scenario s;
  s.name = "digest_dissem";
  s.protocol = engine::Protocol::HotStuff;
  s.n = 50;
  s.topo = harness::Scenario::Topo::Symmetric3;
  s.delta = millis(100);
  s.jitter = millis(40);
  s.jitter_frac = 0.25;
  s.leader_processing = millis(80);
  s.max_batch = 100;
  s.txn_size_bytes = 4500;
  s.verify_signatures = false;
  s.mean_interarrival = millis(10);
  s.dissemination = true;
  s.dissem.batch_max_txns = 250;
  s.dissem.batch_interval = seconds(1);
  s.dissem.clients = 50;
  s.dissem.client_rate_limit = 5;
  s.duration = seconds(12);
  s.warmup = seconds(3);
  s.tail = seconds(3);
  return {s, 2 * s.f(), true, 4};
}

/// SFT-Streamlet at n = 16 with the O(n^3) echo and small transactions; Δ
/// derived from the topology.
Workload streamlet_echo() {
  harness::Scenario s;
  s.name = "streamlet_echo";
  s.protocol = engine::Protocol::Streamlet;
  s.n = 16;
  s.topo = harness::Scenario::Topo::Symmetric3;
  s.delta = millis(100);
  s.intra = millis(1);
  s.jitter = millis(10);
  s.jitter_frac = 0.25;
  s.streamlet_echo = true;
  s.max_batch = 50;
  s.txn_size_bytes = 450;
  s.mean_interarrival = millis(10);
  s.verify_signatures = true;
  s.duration = seconds(12);
  s.warmup = seconds(2);
  s.tail = seconds(3);
  s.streamlet_delta_bound = derived_delta_bound(s);
  return {s, 2 * s.f(), true, 8};
}

/// SFT-DiemBFT at n = 31 with every replica persisting, staggered
/// crash-restart churn, a Byzantine coalition of c < f, pre-GST corrupted
/// links and the safety auditor.
Workload churn_audit() {
  harness::Scenario s;
  s.name = "churn_audit";
  s.protocol = engine::Protocol::DiemBft;
  s.n = 31;
  s.topo = harness::Scenario::Topo::Uniform;
  s.delta = millis(20);
  s.jitter = millis(5);
  s.jitter_frac = 0;
  s.leader_processing = millis(10);
  s.max_batch = 50;
  s.txn_size_bytes = 450;
  s.mean_interarrival = millis(10);
  s.verify_signatures = true;
  s.persist_all = true;
  s.snapshot_interval_blocks = 32;
  s.crash_restart_count = 3;
  s.crash_restart_first = seconds(6);
  s.crash_restart_downtime = seconds(3);
  s.crash_restart_stagger = seconds(5);
  s.byzantine_count = 3;
  s.byzantine.strategies = {adversary::Strategy::EquivocatingLeader,
                            adversary::Strategy::AmnesiaVoter};
  s.gst = millis(1500);
  s.corrupt_count = 3;
  s.corrupt = {.rate = 0.5, .max_flips = 3, .peers = {}};
  s.audit = true;
  s.duration = seconds(24);
  s.warmup = seconds(3);
  s.tail = seconds(3);
  // 2f - c: the coalition's votes never count toward strength.
  return {s, 2 * s.f() - s.byzantine_count, false, 4};
}

std::optional<Workload> find_workload(const std::string& name) {
  if (name == "inline_geo") return inline_geo();
  if (name == "digest_dissem") return digest_dissem();
  if (name == "streamlet_echo") return streamlet_echo();
  if (name == "churn_audit") return churn_audit();
  return std::nullopt;
}

/// Deliberately broken inputs for the self-test (see the file comment).
void apply_injection(Workload& w, const std::string& inject) {
  harness::Scenario& s = w.scenario;
  if (inject == "stall") {
    // Nothing can commit: Streamlet's Δ is below the link delay, and a
    // chained leader spends the whole run preparing its first proposal.
    s.streamlet_delta_bound = millis(1);
    s.leader_processing = s.duration;
  } else if (inject == "corrupt") {
    s.gst = std::max<SimTime>(s.gst, seconds(1));
    s.corrupt_count = std::max(s.corrupt_count, 2u);
    s.corrupt = {.rate = 1.0, .max_flips = 3, .peers = {}};
  } else if (inject == "naive") {
    s.counting = consensus::CountingRule::NaiveAllIndirect;
    s.audit = true;
    if (s.byzantine_count == 0) {
      s.byzantine_count = std::max(1u, s.f() / 2);
      s.byzantine.strategies = {adversary::Strategy::EquivocatingLeader,
                                adversary::Strategy::AmnesiaVoter};
    }
  }
}

std::uint64_t rep_seed(std::uint64_t seed, std::uint32_t rep) {
  // splitmix64 over (seed, rep): distinct, well-mixed scenario seeds.
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (rep + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

// -------------------------------------------------------------- statistics

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

double mean(const std::vector<double>& values) {
  double total = 0;
  for (const double value : values) total += value;
  return values.empty() ? 0 : total / static_cast<double>(values.size());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// FNV-1a over 64-bit words.
struct Fnv1a {
  std::uint64_t hash = 14695981039346656037ULL;
  void mix(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (byte * 8)) & 0xff;
      hash *= 1099511628211ULL;
    }
  }
};

// ---------------------------------------------------------- one repetition

/// Wire types whose per-frame delays the per-layer metrics report.
constexpr std::array<const char*, 4> kDelayTypes = {"proposal", "vote",
                                                    "batch_push", "echo"};

struct RepResult {
  std::uint64_t seed = 0;
  double construct_s = 0;
  double start_s = 0;
  double run_s = 0;
  std::uint64_t events = 0;
  /// Replica 0's ledger: blocks committed over the whole run and the
  /// fingerprint over (height, block id, strength, first commit time).
  std::uint64_t blocks = 0;
  std::uint64_t fingerprint = 0;
  // Simulated-time outcomes (deterministic at a fixed seed).
  std::vector<double> commit_latency_s;  ///< all replicas, in-window blocks
  std::vector<double> top_latency_s;     ///< same, reaching the top level
  std::uint64_t window_commits = 0;  ///< replica 0, blocks created in window
  std::uint64_t window_txns = 0;
  double window_s = 0;
  double max_commit_gap_s = 0;
  std::uint64_t window_rounds = 0;
  std::uint64_t failed_rounds = 0;
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t saved_bytes = 0;
  std::map<std::string, net::MessageStats::TypeStats> traffic;
  std::uint64_t max_egress = 0;
  std::uint64_t corrupt_drops = 0;
  std::uint64_t decode_drops = 0;
  std::uint64_t violations = 0;
  std::uint64_t equivocations = 0;
  std::uint64_t forged_votes = 0;
  std::vector<double> catchup_s;  ///< per restart
  // Timed repetitions.
  std::vector<double> event_ns;  ///< wall per run_one()
  double observer_ns = 0;        ///< commit observer, auditor excluded
  double audit_ns = 0;           ///< audit taps + SafetyAuditor::on_commit
  // Traced repetitions.
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::vector<double>> transit_ms;
  std::map<std::string, std::vector<double>> queueing_ms;
  std::vector<double> vote_f1_ms;
  std::vector<double> vote_quorum_ms;
  std::array<double, obs::kSegmentCount> cp_us{};
  double cp_total_us = 0;
  std::int64_t backlog_max = 0;
  std::vector<std::string> failures;
};

template <typename Fn>
auto timed_tap(Fn fn, double& total_ns, bool timed) {
  return [fn = std::move(fn), &total_ns, timed](auto&&... args) {
    if (!timed) {
      fn(args...);
      return;
    }
    const auto start = Clock::now();
    fn(args...);
    total_ns += ns_since(start);
  };
}

bool find_arg(const obs::TraceEvent& event, const char* key,
              std::uint64_t& out) {
  for (const obs::TraceEvent::Arg& arg : event.args) {
    if (arg.key != nullptr && std::strcmp(arg.key, key) == 0) {
      out = arg.value;
      return true;
    }
  }
  return false;
}

/// Reads exact per-frame delays, vote-ordinal latencies and the critical
/// path out of a traced run's event journal.
void read_trace(const engine::Deployment& deployment, RepResult& r) {
  const std::vector<obs::TraceEvent>& events =
      deployment.observer()->trace().events();
  const net::Topology& topology = deployment.transport().topology();

  const obs::CriticalPathResult cp = obs::CriticalPathAnalyzer::analyze(events);
  for (std::size_t i = 0; i < obs::kSegmentCount; ++i) {
    r.cp_us[i] = static_cast<double>(cp.totals[i]);
  }
  r.cp_total_us = static_cast<double>(cp.total_latency);

  // Block-lifecycle spans start at the block's creation; they and the
  // vote-ordinal instants both identify a block by (height, round).
  std::map<std::pair<std::uint64_t, std::uint64_t>, SimTime> created;
  for (const obs::TraceEvent& e : events) {
    if (e.phase != 'X') continue;
    std::uint64_t value = 0;
    if (std::strcmp(e.category, "block") == 0 && find_arg(e, "round", value)) {
      created.try_emplace(std::make_pair(e.lane, value), e.ts);
    } else if (std::strcmp(e.category, "net") == 0 &&
               find_arg(e, "to", value)) {
      // Sender-side in-flight span: ts = send, dur = transit.
      for (const char* type : kDelayTypes) {
        if (std::strcmp(e.name, type) != 0) continue;
        const SimDuration base =
            topology.base_delay(e.replica, static_cast<ReplicaId>(value));
        r.transit_ms[type].push_back(to_millis(e.dur));
        r.queueing_ms[type].push_back(to_millis(e.dur - base));
      }
    }
  }
  for (const obs::TraceEvent& e : events) {
    if (e.phase != 'i' || std::strcmp(e.category, "block") != 0) continue;
    const bool f1 = std::strcmp(e.name, "vote_f1") == 0;
    if (!f1 && std::strcmp(e.name, "vote_quorum") != 0) continue;
    std::uint64_t round = 0;
    std::uint64_t height = 0;
    if (!find_arg(e, "round", round) || !find_arg(e, "height", height)) {
      continue;
    }
    const auto it = created.find(std::make_pair(height, round));
    if (it == created.end()) continue;
    (f1 ? r.vote_f1_ms : r.vote_quorum_ms)
        .push_back(to_millis(e.ts - it->second));
  }
}

/// Runs one repetition of `w` at `seed`. `traced` turns observability and
/// tracing on; `timed` times every scheduler event and the commit/audit
/// callbacks from outside.
RepResult run_rep(const Workload& w, std::uint64_t seed, bool traced,
                  bool timed) {
  harness::Scenario s = w.scenario;
  s.seed = seed;
  if (traced) {
    s.obs.enabled = true;
    s.obs.trace = true;
  }
  const SimTime window_lo = s.warmup;
  const SimTime window_hi = s.duration - s.tail;

  RepResult r;
  r.seed = seed;

  std::unique_ptr<harness::SafetyAuditor> auditor;
  if (s.audit) {
    auditor = std::make_unique<harness::SafetyAuditor>(
        harness::SafetyAuditor::Config{.protocol = s.protocol, .n = s.n});
  }

  // Raw latency samples (not histogram buckets), so percentiles are exact.
  struct Seen {
    std::vector<std::uint8_t> committed;
    std::vector<std::uint8_t> top;
  };
  std::unordered_map<types::BlockId, Seen> seen;
  double commit_audit_ns = 0;
  const auto on_commit = [&](ReplicaId replica, const types::Block& block,
                             std::uint32_t strength, SimTime now) {
    const auto start = timed ? Clock::now() : Clock::time_point{};
    if (block.created_at >= window_lo && block.created_at <= window_hi) {
      auto [it, fresh] = seen.try_emplace(block.id);
      Seen& entry = it->second;
      if (fresh) {
        entry.committed.assign(s.n, 0);
        entry.top.assign(s.n, 0);
      }
      const double latency = to_seconds(now - block.created_at);
      if (!entry.committed[replica]) {
        entry.committed[replica] = 1;
        r.commit_latency_s.push_back(latency);
      }
      if (!entry.top[replica] && strength >= w.top_level) {
        entry.top[replica] = 1;
        r.top_latency_s.push_back(latency);
      }
    }
    if (auditor) {
      const auto audit_start = timed ? Clock::now() : Clock::time_point{};
      auditor->on_commit(replica, block, strength, now);
      if (timed) commit_audit_ns += ns_since(audit_start);
    }
    if (timed) r.observer_ns += ns_since(start);
  };

  engine::AuditTaps taps;
  double tap_ns = 0;
  if (auditor) {
    const core::AuditTaps inner = auditor->taps();
    if (inner.canonical_qc) {
      taps.canonical_qc = timed_tap(inner.canonical_qc, tap_ns, timed);
    }
    if (inner.block_seen) {
      taps.block_seen = timed_tap(inner.block_seen, tap_ns, timed);
    }
    if (inner.vote_seen) {
      taps.vote_seen = timed_tap(inner.vote_seen, tap_ns, timed);
    }
  }

  const auto t0 = Clock::now();
  engine::Deployment deployment(s.to_deployment_config(), on_commit,
                                std::move(taps));
  const auto t1 = Clock::now();
  deployment.start();
  const auto t2 = Clock::now();

  sim::Scheduler& sched = deployment.scheduler();
  bool done = false;
  sched.schedule_at(s.duration, [&done] { done = true; });

  // Polled between scheduler slices: the window's round marks, restart
  // catch-up, and the mempool backlog gauge (traced runs).
  struct Restart {
    ReplicaId id = 0;
    SimTime at = 0;
    std::optional<Height> target;
    bool caught_up = false;
  };
  std::vector<Restart> restarts;
  const auto faults = s.effective_faults();
  for (ReplicaId id = 0; id < faults.size(); ++id) {
    if (faults[id].kind == engine::FaultSpec::Kind::CrashRestart) {
      restarts.push_back({id, faults[id].restart_at, std::nullopt, false});
    }
  }
  std::optional<Round> round_lo;
  std::optional<Round> round_hi;
  obs::Observer* observer = deployment.observer();
  constexpr SimDuration kSlice = millis(10);
  SimTime next_poll = 0;
  const auto poll = [&] {
    const SimTime now = sched.now();
    next_poll = (now / kSlice + 1) * kSlice;
    if (!round_lo && now >= window_lo) {
      round_lo = deployment.engine(0).current_round();
    }
    if (!round_hi && now >= window_hi) {
      round_hi = deployment.engine(0).current_round();
    }
    for (Restart& restart : restarts) {
      if (restart.caught_up || now < restart.at) continue;
      if (!restart.target) {
        restart.target = deployment.ledger(0).tip().value_or(0);
      }
      if (deployment.ledger(restart.id).tip().value_or(0) >= *restart.target) {
        r.catchup_s.push_back(to_seconds(now - restart.at));
        restart.caught_up = true;
      }
    }
    if (observer != nullptr) {
      for (ReplicaId id = 0; id < s.n; ++id) {
        r.backlog_max = std::max(
            r.backlog_max,
            observer->registry(id).gauge(obs::Gauge::kMempoolBacklog));
      }
    }
  };

  if (timed) {
    while (!done) {
      const auto start = Clock::now();
      if (!sched.run_one()) break;
      r.event_ns.push_back(ns_since(start));
      if (sched.now() >= next_poll) poll();
    }
  } else {
    while (!done && sched.run_one()) {
      if (sched.now() >= next_poll) poll();
    }
  }
  const auto t3 = Clock::now();
  poll();

  r.construct_s = seconds_between(t0, t1);
  r.start_s = seconds_between(t1, t2);
  r.run_s = seconds_between(t2, t3);
  r.events = sched.events_processed();
  r.observer_ns -= commit_audit_ns;
  r.audit_ns = tap_ns + commit_audit_ns;
  for (const Restart& restart : restarts) {
    if (!restart.caught_up) {
      r.catchup_s.push_back(to_seconds(s.duration - restart.at));
    }
  }

  const chain::Ledger& ledger = deployment.ledger(0);
  r.blocks = ledger.committed_blocks();
  Fnv1a fingerprint;
  std::vector<SimTime> commit_times;
  std::uint64_t committed_rounds = 0;
  for (const chain::Ledger::Entry& entry : ledger.snapshot()) {
    fingerprint.mix(entry.height);
    for (std::size_t i = 0; i < entry.block_id.bytes.size(); i += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, entry.block_id.bytes.data() + i, sizeof(word));
      fingerprint.mix(word);
    }
    fingerprint.mix(entry.strength);
    fingerprint.mix(static_cast<std::uint64_t>(entry.first_committed_at));
    if (entry.first_committed_at >= window_lo &&
        entry.first_committed_at <= window_hi) {
      commit_times.push_back(entry.first_committed_at);
    }
    if (round_lo && round_hi && entry.round >= *round_lo &&
        entry.round < *round_hi) {
      ++committed_rounds;
    }
  }
  r.fingerprint = fingerprint.hash;

  std::sort(commit_times.begin(), commit_times.end());
  SimDuration max_gap = commit_times.size() < 2 ? window_hi - window_lo : 0;
  for (std::size_t i = 1; i < commit_times.size(); ++i) {
    max_gap = std::max(max_gap, commit_times[i] - commit_times[i - 1]);
  }
  r.max_commit_gap_s = to_seconds(max_gap);
  if (round_lo && round_hi && *round_hi > *round_lo) {
    r.window_rounds = *round_hi - *round_lo;
    r.failed_rounds =
        r.window_rounds - std::min(r.window_rounds, committed_rounds);
  }

  const harness::LedgerSummary summary =
      harness::summarize_ledger(ledger, s.duration, window_lo, window_hi);
  r.window_commits = summary.committed_blocks;
  r.window_txns = summary.committed_txns;
  r.window_s = to_seconds(window_hi - window_lo);

  const net::MessageStats& stats = deployment.net_stats();
  r.frames = stats.total_count();
  r.bytes = stats.total_bytes();
  r.saved_bytes = stats.broadcast_saved_bytes();
  r.traffic = stats.by_type();
  r.max_egress = stats.max_egress_bytes();
  r.corrupt_drops = stats.corrupt_drops();
  r.decode_drops = stats.decode_drops();
  if (auditor) r.violations = auditor->violations().size();
  if (const adversary::Coalition* coalition = deployment.coalition()) {
    r.equivocations = coalition->stats().equivocations;
    r.forged_votes = coalition->stats().forged_votes;
  }
  if (observer != nullptr) {
    r.counters = observer->merged().counter_snapshot();
    if (observer->tracing()) read_trace(deployment, r);
  }

  // Oracles.
  if (r.window_commits == 0) {
    r.failures.push_back("no in-window commit at replica 0");
  }
  if (w.clean && r.decode_drops > 0) {
    r.failures.push_back("decode drops on clean links: " +
                         std::to_string(r.decode_drops));
  }
  if (w.clean && r.corrupt_drops > 0) {
    r.failures.push_back("corrupt drops on clean links: " +
                         std::to_string(r.corrupt_drops));
  }
  if (r.violations > 0) {
    r.failures.push_back("safety auditor violations: " +
                         std::to_string(r.violations));
  }
  return r;
}

// ----------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The simulated-time end-to-end metrics, pooled over repetitions: latency
/// percentiles over every sample, rates as sums over sums, the commit gap
/// as the median of each repetition's longest gap.
struct SimMetrics {
  double commit_p50_s = 0;
  double commit_p99_s = 0;
  double strong_top_p50_s = 0;
  double txn_per_sim_s = 0;
  double msgs_per_block = 0;
  double wire_kb_per_block = 0;
  double max_commit_gap_s = 0;
  double failed_frac = 0;
  /// Share of in-window (block, replica) commits that reached the top
  /// strength level (a diagnostic: the level is chosen so this is >= 0.5).
  double top_coverage = 0;

  friend bool operator==(const SimMetrics&, const SimMetrics&) = default;
};

SimMetrics pool_sim(const std::vector<RepResult>& reps) {
  std::vector<double> commit, top, gaps;
  double txns = 0, window = 0, frames = 0, bytes = 0, blocks = 0;
  double rounds = 0, failed = 0;
  for (const RepResult& r : reps) {
    commit.insert(commit.end(), r.commit_latency_s.begin(),
                  r.commit_latency_s.end());
    top.insert(top.end(), r.top_latency_s.begin(), r.top_latency_s.end());
    gaps.push_back(r.max_commit_gap_s);
    txns += static_cast<double>(r.window_txns);
    window += r.window_s;
    frames += static_cast<double>(r.frames);
    bytes += static_cast<double>(r.bytes);
    blocks += static_cast<double>(r.blocks);
    rounds += static_cast<double>(r.window_rounds);
    failed += static_cast<double>(r.failed_rounds);
  }
  SimMetrics m;
  m.commit_p50_s = percentile(commit, 0.50);
  m.commit_p99_s = percentile(commit, 0.99);
  m.strong_top_p50_s = percentile(top, 0.50);
  m.txn_per_sim_s = ratio(txns, window);
  m.msgs_per_block = ratio(frames, blocks);
  m.wire_kb_per_block = ratio(bytes / 1024, blocks);
  m.max_commit_gap_s = median(gaps);
  m.failed_frac = rounds > 0 ? failed / rounds : 1.0;
  m.top_coverage = ratio(static_cast<double>(top.size()),
                         static_cast<double>(commit.size()));
  return m;
}

// ------------------------------------------------------ timed layer calls

/// Median wall nanoseconds of one `fn()` call: calls are batched so every
/// sample spans at least ~200 us, and the median of 15 samples is kept.
template <typename Fn>
double time_call_ns(Fn&& fn) {
  fn();  // warm caches and lazy state
  const auto probe = Clock::now();
  fn();
  const double once = std::max(ns_since(probe), 1.0);
  const int batch = std::clamp(static_cast<int>(2e5 / once), 1, 100000);
  std::vector<double> samples;
  for (int sample = 0; sample < 15; ++sample) {
    const auto start = Clock::now();
    for (int i = 0; i < batch; ++i) fn();
    samples.push_back(ns_since(start) / batch);
  }
  return median(samples);
}

/// Envelope::encode of a frame of `frame_bytes` total size.
double encode_us(std::size_t frame_bytes) {
  if (frame_bytes <= net::Envelope::kOverhead) return 0;
  const net::Envelope env{net::WireType::kProposal, 0,
                          Bytes(frame_bytes - net::Envelope::kOverhead, 0xa5)};
  return time_call_ns([&] { g_sink = g_sink + env.encode().size(); }) / 1e3;
}

double crc32_ns_per_kb(std::size_t bytes) {
  const Bytes buffer(std::max<std::size_t>(bytes, 1), 0x5a);
  const double ns =
      time_call_ns([&] { g_sink = g_sink + crc32(BytesView(buffer)); });
  return ns / (static_cast<double>(buffer.size()) / 1024.0);
}

double sha256_ns_per_kb(std::size_t bytes) {
  const Bytes buffer(std::max<std::size_t>(bytes, 1), 0x3c);
  const double ns = time_call_ns([&] {
    g_sink = g_sink + crypto::Sha256::hash(BytesView(buffer)).bytes[0];
  });
  return ns / (static_cast<double>(buffer.size()) / 1024.0);
}

/// Batch::digest_is_valid on a batch of the workload's size.
double digest_validate_us(std::size_t txns, std::uint32_t txn_size) {
  dissem::Batch batch;
  batch.creator = 1;
  batch.seq = 7;
  for (std::size_t i = 0; i < txns; ++i) {
    batch.txns.push_back(types::Transaction{
        .id = i + 1,
        .submitted_at = static_cast<SimTime>(i),
        .size_bytes = txn_size});
  }
  batch.seal();
  return time_call_ns([&] { g_sink = g_sink + batch.digest_is_valid(); }) /
         1e3;
}

types::Vote make_vote(const types::BlockId& block, Round round,
                      ReplicaId voter) {
  types::Vote vote;
  vote.block_id = block;
  vote.round = round;
  vote.voter = voter;
  vote.mode = types::VoteMode::Marker;
  vote.marker = 0;
  return vote;
}

/// KeyRegistry::verify of one vote (cold: no verification cache).
double verify_vote_us(std::uint32_t n) {
  const crypto::KeyRegistry registry(n, 11);
  types::Vote vote = make_vote(types::BlockId{}, 5, 1);
  vote.sig = registry.signer_for(1).sign(vote.signing_bytes());
  return time_call_ns([&] {
           g_sink = g_sink + registry.verify(vote.sig, vote.signing_bytes());
         }) /
         1e3;
}

/// StrengthTracker::process_qc per QC: a chain of blocks, each certified by
/// 2f + 1 marker-mode votes, ingested in order by a fresh tracker.
double strength_qc_us(std::uint32_t n) {
  const std::uint32_t f = (n - 1) / 3;
  const crypto::KeyRegistry registry(n, 13);
  chain::BlockTree tree;
  std::vector<types::QuorumCert> qcs;
  types::Block parent = tree.genesis();
  constexpr Round kChain = 64;
  for (Round round = 1; round <= kChain; ++round) {
    types::Block block;
    block.parent_id = parent.id;
    block.round = round;
    block.height = parent.height + 1;
    block.proposer = static_cast<ReplicaId>(round % n);
    block.created_at = static_cast<SimTime>(round) * 1000;
    block.seal();
    tree.insert(block);
    types::QuorumCert qc;
    qc.block_id = block.id;
    qc.round = round;
    qc.parent_id = parent.id;
    qc.parent_round = parent.round;
    for (ReplicaId voter = 0; voter < 2 * f + 1; ++voter) {
      types::Vote vote = make_vote(block.id, round, voter);
      vote.sig = registry.signer_for(voter).sign(vote.signing_bytes());
      qc.add_vote(vote);
    }
    qc.canonicalize();
    qcs.push_back(std::move(qc));
    parent = block;
  }
  const double ns = time_call_ns([&] {
    core::StrengthTracker tracker(tree, n, f);
    for (const types::QuorumCert& qc : qcs) {
      g_sink = g_sink + tracker.process_qc(qc).size();
    }
  });
  return ns / static_cast<double>(kChain) / 1e3;
}

/// Wal::append of one `record_bytes` record on a MemBackend.
double wal_append_us(std::size_t record_bytes) {
  const Bytes record(record_bytes, 0x42);
  auto backend = std::make_unique<storage::MemBackend>(3);
  auto wal = std::make_unique<storage::Wal>(*backend, "wal");
  std::size_t appended = 0;
  return time_call_ns([&] {
           if (++appended % 4096 == 0) {  // bound the backend's memory
             wal.reset();
             backend = std::make_unique<storage::MemBackend>(3);
             wal = std::make_unique<storage::Wal>(*backend, "wal");
           }
           wal->append(BytesView(record));
         }) /
         1e3;
}

// ------------------------------------------------------------------ output

void print_manifest(const Workload& w, std::uint64_t seed,
                    const std::vector<std::uint64_t>& rep_seeds) {
  harness::Scenario s = w.scenario;
  s.seed = rep_seeds.front();
  std::printf("{\"manifest\": {\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"top_level\": %u, \"streamlet_delta_bound_us\": %" PRId64
              ", \"rep_seeds\": [",
              s.name.c_str(), seed, w.top_level, s.streamlet_delta_bound);
  for (std::size_t i = 0; i < rep_seeds.size(); ++i) {
    std::printf("%s%" PRIu64, i > 0 ? ", " : "", rep_seeds[i]);
  }
  std::printf("], \"run\": %s}}\n", s.manifest().render_json().c_str());
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value =
        std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::size_t report_failures(const std::vector<RepResult>& reps,
                            const char* label) {
  std::size_t failed = 0;
  for (const RepResult& r : reps) {
    if (r.failures.empty()) continue;
    ++failed;
    for (const std::string& failure : r.failures) {
      std::fprintf(stderr, "[hostbench] %s rep seed %" PRIu64 ": %s\n", label,
                   r.seed, failure.c_str());
    }
  }
  return failed;
}

template <typename Field>
std::vector<double> collect(const std::vector<RepResult>& reps, Field field) {
  std::vector<double> values;
  for (const RepResult& r : reps) {
    values.push_back(static_cast<double>(field(r)));
  }
  return values;
}

// ------------------------------------------------------------------- modes

/// --trace 0: untraced repetitions while they fit in `seconds` (at least
/// one per seed), cycling through the seeds; run wall metrics take the
/// fastest repetition, set-up time the median over repetitions, simulated
/// metrics pool the first cycle. A replayed seed must reproduce its ledger.
int run_end_to_end(const Workload& w, const Options& opt,
                   const std::vector<std::uint64_t>& seeds) {
  const auto begin = Clock::now();
  std::vector<RepResult> reps;
  for (std::size_t i = 0;; ++i) {
    // After the first cycle, start a repetition only if one of the mean
    // length so far still ends within `seconds`.
    const double elapsed = seconds_between(begin, Clock::now());
    if (i >= seeds.size() &&
        elapsed + elapsed / static_cast<double>(i) > opt.seconds) {
      break;
    }
    const std::size_t slot = i % seeds.size();
    reps.push_back(run_rep(w, seeds[slot], false, false));
    if (i >= seeds.size() &&
        reps.back().fingerprint != reps[slot].fingerprint) {
      reps.back().failures.push_back("replaying a seed changed the ledger");
    }
  }
  const double sim_seconds = to_seconds(w.scenario.duration);

  const std::vector<RepResult> first(
      reps.begin(), reps.begin() + static_cast<std::ptrdiff_t>(seeds.size()));
  // Load from other tenants of the host only ever adds wall time, and it
  // comes in spells that outlast a repetition, so the run wall metrics take
  // the fastest repetition of the whole run, each normalized by its own
  // seed's work (the seeds differ by a few blocks at most).
  const auto fastest = [&](auto field) {
    const std::vector<double> values = collect(reps, field);
    return *std::min_element(values.begin(), values.end());
  };
  const SimMetrics sim = pool_sim(first);
  std::fprintf(stderr,
               "[hostbench] %s: %zu repetitions; top level %u reached by "
               "%.3f of in-window commits\n",
               w.scenario.name.c_str(), reps.size(), w.top_level,
               sim.top_coverage);
  const std::size_t failed = report_failures(reps, "untraced");

  const std::vector<Metric> metrics = {
      {"setup_s",
       median(collect(reps,
                      [](const RepResult& r) { return r.construct_s + r.start_s; })),
       "s"},
      {"sim_s_per_wall_s",
       sim_seconds / fastest([](const RepResult& r) { return r.run_s; }),
       "s/s"},
      {"wall_ms_per_block",
       fastest([](const RepResult& r) {
         return ratio(r.run_s * 1e3, static_cast<double>(r.blocks));
       }),
       "ms/block"},
      {"commit_p50_s", sim.commit_p50_s, "s"},
      {"commit_p99_s", sim.commit_p99_s, "s"},
      {"strong_top_p50_s", sim.strong_top_p50_s, "s"},
      {"txn_per_sim_s", sim.txn_per_sim_s, "txn/s"},
      {"msgs_per_block", sim.msgs_per_block, "msgs/block"},
      {"wire_kb_per_block", sim.wire_kb_per_block, "KB/block"},
      {"max_commit_gap_s", sim.max_commit_gap_s, "s"},
  };
  print_result(failed == 0, reps.size(), failed, metrics);
  return failed == 0 ? 0 : 1;
}

/// --trace 1: each seed runs untraced and timed, then traced; per-layer
/// metrics come from the pair, unit costs from timed layer calls.
int run_per_layer(const Workload& w, const Options& opt,
                  const std::vector<std::uint64_t>& seeds) {
  std::vector<RepResult> plain, traced;
  for (const std::uint64_t seed : seeds) {
    plain.push_back(run_rep(w, seed, false, true));
    traced.push_back(
        run_rep(w, opt.inject == "trace-drift" ? seed + 1 : seed, true, true));
    if (plain.back().fingerprint != traced.back().fingerprint) {
      traced.back().failures.push_back(
          "tracing changed replica 0's ledger fingerprint");
    }
  }
  const SimMetrics plain_sim = pool_sim(plain);
  if (!(plain_sim == pool_sim(traced))) {
    traced.front().failures.push_back(
        "tracing changed the simulated end-to-end metrics");
  }
  const std::size_t failed =
      report_failures(plain, "untraced") + report_failures(traced, "traced");

  const harness::Scenario& s = w.scenario;
  const auto per_rep = [](const std::vector<RepResult>& set, auto field) {
    return mean(collect(set, field));
  };
  const auto counter = [&](const char* name) {
    return per_rep(traced, [name](const RepResult& r) {
      const auto it = r.counters.find(name);
      return it != r.counters.end() ? it->second : 0;
    });
  };

  // Workload shapes for the timed layer calls.
  std::map<std::string, net::MessageStats::TypeStats> traffic;
  for (const RepResult& r : plain) {
    for (const auto& [type, stats] : r.traffic) {
      traffic[type].count += stats.count;
      traffic[type].bytes += stats.bytes;
    }
  }
  const auto mean_frame = [&](const std::string& type) -> std::size_t {
    const auto it = traffic.find(type);
    if (it == traffic.end() || it->second.count == 0) return 0;
    return static_cast<std::size_t>(it->second.bytes / it->second.count);
  };
  std::string heaviest;
  std::uint64_t heaviest_bytes = 0;
  for (const auto& [type, stats] : traffic) {
    if (stats.bytes > heaviest_bytes) {
      heaviest = type;
      heaviest_bytes = stats.bytes;
    }
  }
  const std::size_t batch_txns =
      s.dissemination ? s.dissem.batch_max_txns : s.max_batch;
  const std::size_t record_bytes =
      16 + 4 + 8 + 4 + batch_txns * types::Transaction::kRecordBytes;
  // The frame one batch of the workload's transactions fills, for a type
  // the workload never sends (e.g. batch_push without dissemination).
  const std::size_t batch_frame =
      net::Envelope::kOverhead + dissem::Batch::kMinEncodedBytes +
      batch_txns * (types::Transaction::kRecordBytes + s.txn_size_bytes);
  Encoder vote_encoder;
  make_vote(types::BlockId{}, 1, 0).encode(vote_encoder);

  const double reps = static_cast<double>(seeds.size());
  const double bytes_charged =
      per_rep(plain, [](const RepResult& r) { return r.bytes; });
  const double bytes_framed = per_rep(
      plain, [](const RepResult& r) { return r.bytes - r.saved_bytes; });
  // Frames encoded per type are approximated by the frames charged, scaled
  // by the run-wide share of charged bytes the broadcast path did encode.
  const double encoded_share = ratio(bytes_framed, bytes_charged);
  std::map<std::string, double> encode_cost_us;
  double net_est_ms = 0;
  for (const auto& [type, stats] : traffic) {
    const double cost = encode_us(mean_frame(type));
    encode_cost_us[type] = cost;
    net_est_ms += static_cast<double>(stats.count) / reps * encoded_share *
                  cost / 1e3;
  }
  const auto encode_of = [&](const char* type, std::size_t fallback_bytes) {
    const auto it = encode_cost_us.find(type);
    return it != encode_cost_us.end() ? it->second : encode_us(fallback_bytes);
  };

  const double crc_ns_kb = crc32_ns_per_kb(mean_frame(heaviest));
  const double validate_us = digest_validate_us(batch_txns, s.txn_size_bytes);
  const auto push = traffic.find("batch_push");
  const double batch_push_frames =
      push != traffic.end() ? static_cast<double>(push->second.count) / reps
                            : 0;
  const double dissem_est_ms = batch_push_frames * validate_us / 1e3;
  const double wal_us = wal_append_us(vote_encoder.data().size());
  const double wal_appends = counter("storage.wal_appends");
  const double storage_est_ms = wal_appends * wal_us / 1e3;
  const double plain_wall =
      per_rep(plain, [](const RepResult& r) { return r.run_s; });
  const double traced_wall =
      per_rep(traced, [](const RepResult& r) { return r.run_s; });
  const double events =
      per_rep(plain, [](const RepResult& r) { return r.events; });
  const double blocks =
      per_rep(plain, [](const RepResult& r) { return r.blocks; });

  std::vector<double> event_ns;
  for (const RepResult& r : plain) {
    event_ns.insert(event_ns.end(), r.event_ns.begin(), r.event_ns.end());
  }
  std::map<std::string, std::vector<double>> transit, queueing;
  std::vector<double> vote_f1, vote_quorum, catchup;
  std::array<double, obs::kSegmentCount> cp{};
  double cp_total = 0;
  std::int64_t backlog_max = 0;
  for (const RepResult& r : traced) {
    for (const auto& [type, values] : r.transit_ms) {
      transit[type].insert(transit[type].end(), values.begin(), values.end());
    }
    for (const auto& [type, values] : r.queueing_ms) {
      queueing[type].insert(queueing[type].end(), values.begin(),
                            values.end());
    }
    vote_f1.insert(vote_f1.end(), r.vote_f1_ms.begin(), r.vote_f1_ms.end());
    vote_quorum.insert(vote_quorum.end(), r.vote_quorum_ms.begin(),
                       r.vote_quorum_ms.end());
    catchup.insert(catchup.end(), r.catchup_s.begin(), r.catchup_s.end());
    for (std::size_t i = 0; i < obs::kSegmentCount; ++i) cp[i] += r.cp_us[i];
    cp_total += r.cp_total_us;
    backlog_max = std::max(backlog_max, r.backlog_max);
  }
  const double vote_hits = counter("sig.vote_verify_hits");
  const double vote_misses = counter("sig.vote_verify_misses");
  const double admitted = counter("admission.admitted");
  const double duplicate = counter("admission.duplicate");
  const double rate_limited = counter("admission.rate_limited");
  const double backpressure = counter("admission.backpressure");
  const double rounds = counter("consensus.rounds_entered");
  const double timeouts = counter("consensus.timeouts_local");

  std::vector<Metric> m = {
      {"engine.construct_s",
       median(collect(plain, [](const RepResult& r) { return r.construct_s; })),
       "s"},
      {"engine.start_s",
       median(collect(plain, [](const RepResult& r) { return r.start_s; })),
       "s"},
      {"sim.events", events, "count"},
      {"sim.events_per_block", ratio(events, blocks), "count"},
      {"sim.event_us_p50", percentile(event_ns, 0.50) / 1e3, "us"},
      {"sim.event_us_p99", percentile(event_ns, 0.99) / 1e3, "us"},
      {"net.frames",
       per_rep(plain, [](const RepResult& r) { return r.frames; }), "count"},
      {"net.bytes_charged", bytes_charged, "B"},
      {"net.bytes_framed", bytes_framed, "B"},
      {"net.encode_us.proposal", encode_of("proposal", batch_frame), "us"},
      {"net.encode_us.batch_push", encode_of("batch_push", batch_frame), "us"},
      {"net.encode_us.vote",
       encode_of("vote", net::Envelope::kOverhead + vote_encoder.data().size()),
       "us"},
      {"net.est_ms", net_est_ms, "ms"},
  };
  for (const char* type : kDelayTypes) {
    m.push_back({std::string("net.transit_p50_ms.") + type,
                 percentile(transit[type], 0.50), "ms"});
  }
  for (const char* type : kDelayTypes) {
    m.push_back({std::string("net.queueing_p99_ms.") + type,
                 percentile(queueing[type], 0.99), "ms"});
  }
  const std::vector<Metric> layers = {
      {"net.max_egress_mb",
       per_rep(plain, [](const RepResult& r) { return r.max_egress; }) / 1e6,
       "MB"},
      {"net.corrupt_drops",
       per_rep(plain, [](const RepResult& r) { return r.corrupt_drops; }),
       "count"},
      {"net.decode_drops",
       per_rep(plain, [](const RepResult& r) { return r.decode_drops; }),
       "count"},
      {"crc32.ns_per_kb", crc_ns_kb, "ns/KB"},
      {"crc32.est_ms", crc_ns_kb * bytes_framed / 1024 / 1e6, "ms"},
      {"sha256.ns_per_kb", sha256_ns_per_kb(record_bytes), "ns/KB"},
      {"sig.vote_verify_hits", vote_hits, "count"},
      {"sig.vote_verify_misses", vote_misses, "count"},
      {"sig.cert_verify_hits", counter("sig.cert_verify_hits"), "count"},
      {"sig.cert_verify_misses", counter("sig.cert_verify_misses"), "count"},
      {"sig.vote_hit_ratio", ratio(vote_hits, vote_hits + vote_misses),
       "ratio"},
      {"sig.verify_vote_us", verify_vote_us(s.n), "us"},
      {"dissem.digest_validate_est_ms", dissem_est_ms, "ms"},
      {"dissem.batches_packed", counter("dissem.batches_packed"), "count"},
      {"dissem.pull_rounds", counter("dissem.pull_rounds"), "count"},
      {"dissem.batches_resolved", counter("dissem.batches_resolved"),
       "count"},
      {"admission.admitted", admitted, "count"},
      {"admission.duplicate", duplicate, "count"},
      {"admission.rate_limited", rate_limited, "count"},
      {"admission.backpressure", backpressure, "count"},
      {"admission.admit_ratio",
       ratio(admitted, admitted + duplicate + rate_limited + backpressure),
       "ratio"},
      {"admission.mempool_backlog_max", static_cast<double>(backlog_max),
       "count"},
      {"core.strength_qc_us", strength_qc_us(s.n), "us"},
      {"consensus.blocks_certified", counter("consensus.blocks_certified"),
       "count"},
      {"consensus.commits", counter("consensus.commits"), "count"},
      {"consensus.strong_commits", counter("consensus.strong_commits"),
       "count"},
      {"consensus.vote_f1_p50_ms", percentile(vote_f1, 0.50), "ms"},
      {"consensus.vote_quorum_p50_ms", percentile(vote_quorum, 0.50), "ms"},
      {"consensus.rounds_entered", rounds, "count"},
      {"consensus.timeouts_local", timeouts, "count"},
      {"consensus.timeout_ratio", ratio(timeouts, rounds), "ratio"},
  };
  m.insert(m.end(), layers.begin(), layers.end());
  for (std::size_t i = 0; i < obs::kSegmentCount; ++i) {
    m.push_back({std::string("cp.") +
                     obs::segment_name(static_cast<obs::Segment>(i)),
                 ratio(cp[i], cp_total), "ratio"});
  }
  const std::vector<Metric> rest = {
      {"storage.wal_appends", wal_appends, "count"},
      {"storage.snapshots", counter("storage.snapshots"), "count"},
      {"storage.wal_append_us", wal_us, "us"},
      {"storage.est_ms", storage_est_ms, "ms"},
      {"sync.rounds", counter("sync.rounds"), "count"},
      {"sync.catchup_s", mean(catchup), "s"},
      {"adversary.equivocations",
       per_rep(traced, [](const RepResult& r) { return r.equivocations; }),
       "count"},
      {"adversary.forged_votes",
       per_rep(traced, [](const RepResult& r) { return r.forged_votes; }),
       "count"},
      {"audit.tap_us_total",
       per_rep(plain, [](const RepResult& r) { return r.audit_ns; }) / 1e3,
       "us"},
      {"audit.violations",
       per_rep(traced, [](const RepResult& r) { return r.violations; }),
       "count"},
      {"harness.observer_us_total",
       per_rep(plain, [](const RepResult& r) { return r.observer_ns; }) / 1e3,
       "us"},
      {"obs.trace_overhead", ratio(traced_wall, plain_wall), "ratio"},
      {"layer.unattributed_ms",
       plain_wall * 1e3 - (net_est_ms + dissem_est_ms + storage_est_ms), "ms"},
      {"failed_frac", failed > 0 ? 1.0 : plain_sim.failed_frac, "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  print_result(failed == 0, plain.size() + traced.size(), failed, m);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  std::optional<Workload> workload = find_workload(opt.workload);
  if (!workload) {
    std::fprintf(stderr,
                 "unknown workload '%s' (inline_geo, digest_dissem, "
                 "streamlet_echo, churn_audit)\n",
                 opt.workload.c_str());
    return 2;
  }
  apply_injection(*workload, opt.inject);
  std::vector<std::uint64_t> seeds;
  for (std::uint32_t i = 0; i < workload->sim_reps; ++i) {
    seeds.push_back(rep_seed(opt.seed, i));
  }
  print_manifest(*workload, opt.seed, seeds);
  try {
    return opt.trace ? run_per_layer(*workload, opt, seeds)
                     : run_end_to_end(*workload, opt, seeds);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "[hostbench] %s: %s\n", opt.workload.c_str(),
                 error.what());
    return 1;
  }
}
