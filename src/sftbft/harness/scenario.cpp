#include "sftbft/harness/scenario.hpp"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "sftbft/harness/auditor.hpp"

namespace sftbft::harness {

namespace {

/// FNV-1a 64-bit over a stream of u64 words — deterministic across
/// platforms, good enough to fingerprint a parameter set.
struct Fnv1a {
  std::uint64_t hash = 14695981039346656037ULL;
  void mix(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (byte * 8)) & 0xff;
      hash *= 1099511628211ULL;
    }
  }
  void mix_double(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    mix(bits);
  }
};

}  // namespace

std::string RunManifest::render_json() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"seed\":%" PRIu64
                ",\"engine\":\"%s\",\"n\":%u,\"config_digest\":\"%016" PRIx64
                "\"}",
                seed, engine.c_str(), n, config_digest);
  return buf;
}

RunManifest Scenario::manifest() const {
  // Every knob that changes run behaviour feeds the digest; the seed is
  // deliberately excluded (it is its own manifest field — same config,
  // different seed is still a comparable run family). The name is cosmetic.
  Fnv1a digest;
  digest.mix(static_cast<std::uint64_t>(protocol));
  digest.mix(n);
  digest.mix(static_cast<std::uint64_t>(mode));
  digest.mix(static_cast<std::uint64_t>(counting));
  digest.mix(fbft ? 1 : 0);
  digest.mix(static_cast<std::uint64_t>(topo));
  digest.mix(delta);
  digest.mix(ab_delay);
  digest.mix(intra);
  digest.mix(asym_a);
  digest.mix(asym_b);
  digest.mix(asym_c);
  digest.mix(jitter);
  digest.mix_double(jitter_frac);
  digest.mix(gst);
  digest.mix(hetero_fast_max);
  digest.mix_double(hetero_medium_fraction);
  digest.mix(hetero_medium_lo);
  digest.mix(hetero_medium_hi);
  digest.mix(straggler_count);
  digest.mix(straggler_extra);
  digest.mix(leader_processing);
  digest.mix(base_timeout);
  digest.mix(extra_wait);
  digest.mix(streamlet_delta_bound);
  digest.mix(streamlet_echo ? 1 : 0);
  digest.mix(max_batch);
  digest.mix(txn_size_bytes);
  digest.mix(mean_interarrival);
  digest.mix(verify_signatures ? 1 : 0);
  digest.mix(interval_window);
  digest.mix(attach_commit_log ? 1 : 0);
  digest.mix(dissemination ? 1 : 0);
  digest.mix(duration);
  digest.mix(warmup);
  digest.mix(tail);
  digest.mix(byzantine_count);
  digest.mix(corrupt_count);
  digest.mix(crash_restart_count);
  digest.mix(crash_restart_first);
  digest.mix(crash_restart_downtime);
  digest.mix(crash_restart_stagger);
  digest.mix(snapshot_interval_blocks);
  digest.mix(persist_all ? 1 : 0);
  digest.mix(faults.size());

  RunManifest manifest;
  manifest.seed = seed;
  manifest.engine = engine::protocol_name(protocol);
  manifest.n = n;
  manifest.config_digest = digest.hash;
  return manifest;
}

SimDuration Scenario::expected_round() const {
  SimDuration widest = intra;
  switch (topo) {
    case Topo::Uniform:
      widest = delta;
      break;
    case Topo::Symmetric3:
      widest = delta;
      break;
    case Topo::Asymmetric3:
      // The common case: leaders in A/B, quorum reachable via the A<->B
      // link. Region-C rounds are *supposed* to overshoot this budget when
      // δ is large (the paper's outcast effect).
      widest = ab_delay;
      break;
  }
  return leader_processing + 2 * widest;
}

SimDuration Scenario::default_timeout() const {
  // Expected round + straggler/heterogeneity headroom (a straggler-led round
  // adds up to 2x straggler_extra on each leg) + jitter headroom + a fixed
  // synchrony margin. In the asymmetric topology (which the benches run with
  // an explicitly tuned, tighter timeout) region-C leaders cannot meet the
  // budget at δ = 200 ms while A/B-led rounds fit comfortably.
  const SimDuration widest = expected_round() - leader_processing;
  const auto prop_jitter = static_cast<SimDuration>(
      jitter_frac * static_cast<double>(widest));
  return expected_round() + prop_jitter +
         4 * std::max(straggler_extra, hetero_medium_hi) + 4 * jitter +
         millis(40);
}

net::Topology Scenario::build_topology() const {
  net::Topology topology = [&] {
    switch (topo) {
      case Topo::Uniform:
        return net::Topology::uniform(n, delta);
      case Topo::Symmetric3:
        return net::Topology::symmetric3(n, delta, intra);
      case Topo::Asymmetric3:
        assert(asym_a + asym_b + asym_c == n);
        return net::Topology::asymmetric3(asym_a, asym_b, asym_c, ab_delay,
                                          delta, intra);
    }
    return net::Topology::uniform(n, delta);
  }();

  // Persistent heterogeneity: deterministic per-replica extra delay, in two
  // tiers (see the field comments in scenario.hpp).
  if (hetero_fast_max > 0) {
    Rng rng(seed ^ 0x48455445524fULL);  // independent of other streams
    for (ReplicaId id = 0; id < n; ++id) {
      const bool medium = rng.uniform01() < hetero_medium_fraction;
      const SimDuration extra =
          medium ? rng.uniform(hetero_medium_lo, hetero_medium_hi)
                 : rng.uniform(0, hetero_fast_max);
      topology.set_extra_delay(id, extra);
    }
  }

  // Spread stragglers evenly over the id space so round-robin leadership
  // reaches them periodically (Sec. 4.1's "one chance every n rounds").
  if (straggler_count > 0) {
    const std::uint32_t stride = std::max(1u, n / straggler_count);
    for (std::uint32_t k = 0; k < straggler_count; ++k) {
      const ReplicaId id = (k * stride + stride / 2) % n;
      topology.set_extra_delay(id, straggler_extra);
    }
  }
  return topology;
}

std::vector<ReplicaId> spread_placements(
    std::uint32_t n, std::uint32_t count,
    const std::function<bool(ReplicaId)>& taken) {
  std::vector<ReplicaId> placed;
  if (n < 2 || count == 0) return placed;
  const std::uint32_t span = n - 1;
  const std::uint32_t stride = std::max(1u, span / count);
  std::vector<bool> chosen(n, false);
  const auto claimed = [&](ReplicaId id) { return chosen[id] || taken(id); };
  for (std::uint32_t k = 0; k < count; ++k) {
    ReplicaId id = 1 + (k * stride) % span;
    std::uint32_t probes = 0;
    while (claimed(id) && probes < span) {
      id = 1 + (id % span);
      ++probes;
    }
    if (probes == span) break;  // every candidate replica already claimed
    chosen[id] = true;
    placed.push_back(id);
  }
  return placed;
}

std::vector<engine::FaultSpec> Scenario::effective_faults() const {
  std::vector<engine::FaultSpec> merged = faults;
  if ((crash_restart_count == 0 && byzantine_count == 0 &&
       corrupt_count == 0) ||
      n < 2) {
    return merged;
  }
  if (merged.size() < n) merged.resize(n, engine::FaultSpec::honest());
  // One shared placement policy (spread_placements): stride-spaced over
  // [1, n) with id 0 kept honest as the metrics anchor; explicit fault
  // entries win (they count as taken).
  const auto place = [&](std::uint32_t count, auto&& make_spec) {
    const auto ids = spread_placements(n, count, [&](ReplicaId id) {
      return merged[id].kind != engine::FaultSpec::Kind::Honest;
    });
    for (std::uint32_t k = 0; k < ids.size(); ++k) {
      merged[ids[k]] = make_spec(k);
    }
  };

  // Coalition placement first (the attack is the experiment's subject);
  // crash churn probes around it.
  if (byzantine_count > 0) {
    place(byzantine_count,
          [&](std::uint32_t) { return engine::FaultSpec::byzantine(byzantine); });
  }
  // Corrupt links are a network fault, not a replica fault, but placement
  // follows the same spread so affected senders rotate through leadership.
  if (corrupt_count > 0) {
    place(corrupt_count,
          [&](std::uint32_t) { return engine::FaultSpec::corrupt_links(corrupt); });
  }
  // Stagger the crashes so the cluster never loses more than one recovering
  // replica at a time unless asked to.
  if (crash_restart_count > 0) {
    place(crash_restart_count, [&](std::uint32_t k) {
      const SimTime crash = crash_restart_first +
                            static_cast<SimTime>(k) * crash_restart_stagger;
      return engine::FaultSpec::crash_restart(
          crash, crash + crash_restart_downtime);
    });
  }
  return merged;
}

engine::DeploymentConfig Scenario::to_deployment_config() const {
  if (fbft && protocol != engine::Protocol::DiemBft) {
    // The Appendix-B FBFT baseline is a DiemBFT adaptation; silently running
    // SFT-Streamlet instead would skew any cross-protocol baseline sweep.
    throw std::invalid_argument(
        "Scenario: fbft baseline only exists for the DiemBFT engine");
  }
  engine::DeploymentConfig deployment;
  deployment.protocol = protocol;
  deployment.n = n;
  // The chained template serves both chained protocols (DiemBFT and
  // HotStuff) — identical knobs, apples-to-apples sweeps; the host stamps
  // the protocol's voting predicate (CoreConfig::safe_to_vote).
  deployment.topology = build_topology();
  deployment.net.jitter = jitter;
  deployment.net.jitter_frac = jitter_frac;
  deployment.net.gst = gst;
  deployment.seed = seed;
  deployment.faults = effective_faults();
  deployment.storage.snapshot_interval_blocks = snapshot_interval_blocks;
  deployment.persist_all = persist_all;

  deployment.chained.mode = fbft ? consensus::CoreMode::Plain : mode;
  deployment.chained.fbft_mode = fbft;
  deployment.chained.counting = counting;
  deployment.chained.base_timeout =
      base_timeout > 0 ? base_timeout : default_timeout();
  deployment.chained.leader_processing = leader_processing;
  if (extra_wait > 0) {
    const SimDuration wait = extra_wait;
    deployment.chained.extra_wait = [wait](Round) { return wait; };
  }
  deployment.chained.max_batch = max_batch;
  deployment.chained.interval_window = interval_window;
  // The FBFT baseline's endorser sets depend on extra-vote arrival order,
  // which differs per replica, so its proposals cannot carry a Log that
  // every honest replica can validate — disable Sec. 5 there.
  deployment.chained.attach_commit_log = attach_commit_log && !fbft;
  deployment.chained.verify_signatures = verify_signatures;

  deployment.streamlet.delta_bound = streamlet_delta_bound;
  deployment.streamlet.sft = mode != consensus::CoreMode::Plain;
  deployment.streamlet.counting = counting;
  deployment.streamlet.echo = streamlet_echo;
  deployment.streamlet.max_batch = max_batch;
  deployment.streamlet.verify_signatures = verify_signatures;

  deployment.workload.txn_size_bytes = txn_size_bytes;
  deployment.workload.target_pool_size = max_batch * 4;
  deployment.workload.mean_interarrival = mean_interarrival;

  deployment.dissem = dissem;
  deployment.dissem.enabled = dissemination;

  deployment.obs = obs;
  if (!trace_path.empty()) {
    deployment.obs.enabled = true;
    deployment.obs.trace = true;
  }
  return deployment;
}

std::vector<std::uint32_t> Scenario::strength_levels() const {
  std::vector<std::uint32_t> levels;
  const double base = f();
  for (int tenth = 10; tenth <= 20; ++tenth) {
    const auto level = static_cast<std::uint32_t>(base * tenth / 10.0);
    if (levels.empty() || levels.back() != level) levels.push_back(level);
  }
  return levels;
}

ScenarioResult run_scenario(const Scenario& scenario) {
  StrengthLatencyTracker tracker(scenario.n, scenario.strength_levels());
  // The window is set before the run: the tracker's latency histograms
  // record streaming (no per-sample retention), so they need the bounds up
  // front. results() re-applies the same filter for the means.
  tracker.set_window(scenario.warmup, scenario.duration - scenario.tail);

  ScenarioResult result;

  std::unique_ptr<SafetyAuditor> auditor;
  if (scenario.audit) {
    auditor = std::make_unique<SafetyAuditor>(
        SafetyAuditor::Config{.protocol = scenario.protocol, .n = scenario.n});
  }

  engine::Deployment deployment(
      scenario.to_deployment_config(),
      [&tracker, &auditor](ReplicaId replica, const types::Block& block,
                           std::uint32_t strength, SimTime now) {
        tracker.on_commit(replica, block, strength, now);
        if (auditor) auditor->on_commit(replica, block, strength, now);
      },
      auditor ? auditor->taps() : engine::AuditTaps{});

  if (auditor) {
    // Snapshot the flight recorder the instant the first violation lands —
    // the incriminating events are still in the rings at that moment.
    auditor->set_violation_hook(
        [&result, &deployment](const SafetyAuditor::Violation& violation) {
          if (result.flight_dump.empty()) {
            if (obs::Observer* obs = deployment.observer()) {
              result.flight_dump =
                  violation.describe() + "\n" + obs->flight_dump();
            }
          }
        });
  }

  deployment.start();
  deployment.run_for(scenario.duration);

  result.latency = tracker.results();
  result.commit_latency = tracker.commit_histogram().summary();
  result.window_blocks = tracker.window_blocks();
  result.summary =
      summarize_ledger(deployment.ledger(0), scenario.duration,
                       scenario.warmup, scenario.duration - scenario.tail);
  const net::MessageStats& stats = deployment.net_stats();
  result.total_messages = stats.total_count();
  result.total_message_bytes = stats.total_bytes();
  result.extra_vote_messages =
      stats.for_type(net::WireLabel::kExtraVote).count;
  result.corrupt_injected = stats.corrupt_injected();
  result.corrupt_drops = stats.corrupt_drops();
  result.broadcast_saved_bytes = stats.broadcast_saved_bytes();
  result.traffic_by_type = stats.by_type();
  result.egress_by_replica = stats.egress_by_replica();
  result.max_egress_bytes = stats.max_egress_bytes();
  result.decode_drops = stats.decode_drops();
  const std::uint64_t blocks = deployment.ledger(0).committed_blocks();
  if (blocks > 0) {
    result.messages_per_block =
        static_cast<double>(result.total_messages) / static_cast<double>(blocks);
  }

  if (auditor) {
    result.auditor_violations = auditor->violations().size();
  }
  if (obs::Observer* obs = deployment.observer()) {
    result.counters = obs->merged().counter_snapshot();
    for (const auto& [type, stats] : obs->wire_delays()) {
      result.wire_delays[type] = {stats.transit_us.summary(),
                                  stats.queueing_us.summary()};
    }
    // A run that produced no in-window blocks is the other flight-recorder
    // trigger: dump the recent timeline (plus the merged counter snapshot —
    // which stage went quiet is usually visible there) so the stall is
    // diagnosable.
    if (result.flight_dump.empty() && result.window_blocks == 0 &&
        obs->flight() != nullptr) {
      std::string dump = "no in-window progress\ncounter snapshot (nonzero):\n";
      for (const auto& [key, value] : result.counters) {
        if (value == 0) continue;
        dump += "  " + key + " = " + std::to_string(value) + "\n";
      }
      dump += obs->flight_dump();
      result.flight_dump = std::move(dump);
    }
    if (!scenario.trace_path.empty() && obs->tracing()) {
      std::ofstream out(scenario.trace_path, std::ios::trunc);
      out << obs->trace_json(scenario.manifest().render_json());
    }
    if (obs->tracing()) {
      result.critical_path =
          obs::CriticalPathAnalyzer::analyze(obs->trace().events());
    }
  }
  // Zero commits with no injected fault means the harness (not the
  // experiment) failed — surface the dump instead of returning silently
  // with all-zero stats.
  const auto faults = scenario.effective_faults();
  const bool clean_faults =
      std::all_of(faults.begin(), faults.end(), [](const engine::FaultSpec& f) {
        return f.kind == engine::FaultSpec::Kind::Honest;
      });
  if (blocks == 0 && clean_faults && !result.flight_dump.empty()) {
    std::fprintf(stderr,
                 "[scenario %s] zero commits under a clean fault spec:\n%s\n",
                 scenario.name.c_str(), result.flight_dump.c_str());
  }
  return result;
}

}  // namespace sftbft::harness
