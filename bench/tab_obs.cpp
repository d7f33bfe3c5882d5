// Observability bench (sftbft::obs): two jobs, one binary.
//
//  * default mode — runs the SAME smoke scenario on all three engines with
//    tracing on, writes each run's Chrome-trace JSON (TRACE_<engine>.json,
//    Perfetto-loadable), checks the merged counter snapshots expose an
//    identical key set across engines (the conformance property the enum
//    vocabulary guarantees by construction — this is the executable pin),
//    and ships the counters + latency percentiles as BENCH_obs.json.
//
//  * --overhead mode — the "near-zero-cost when off" guard: interleaved
//    pairs of the identical scenario with observability off (no Observer,
//    every site a null test) and on (metrics + flight recorder, trace off),
//    each side of a pair repeated until it costs at least 1 s of process
//    CPU time. Fails if the median of the per-pair on/off CPU-time ratios
//    exceeds 1.05: a purely relative 5% budget.
//    `--inject-slowdown <fraction>` makes every obs-on sample spin until it
//    has cost (1 + fraction) times its real CPU time — the guard's
//    self-test: `--overhead --inject-slowdown 0.10` must fail.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "bench_util.hpp"

using namespace sftbft;
using namespace sftbft::bench;

namespace {

harness::Scenario obs_scenario(engine::Protocol protocol,
                               const BenchArgs& args) {
  harness::Scenario s = geo_scenario();
  s.name = "tab_obs";
  s.protocol = protocol;
  s.n = 16;
  s.topo = harness::Scenario::Topo::Symmetric3;
  s.delta = millis(100);
  // Streamlet's lock-step Δ must cover the worst one-way delay (δ=100ms +
  // 40ms jitter + distance-proportional jitter), or no vote lands in its
  // round and nothing ever commits.
  s.streamlet_delta_bound = millis(200);
  s.duration = args.smoke ? seconds(30) : seconds(60);
  s.tail = seconds(10);
  if (args.seed != 0) s.seed = args.seed;
  return s;
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Process CPU seconds for `reps` back-to-back runs of `s`. A positive
/// `inject` then spins until the sample has cost (1 + inject) times as much.
double cpu_sample(const harness::Scenario& s, int reps, double inject) {
  const double start = cpu_seconds();
  for (int i = 0; i < reps; ++i) (void)harness::run_scenario(s);
  if (inject > 0) {
    const double until = start + (cpu_seconds() - start) * (1.0 + inject);
    while (cpu_seconds() < until) {
    }
  }
  return cpu_seconds() - start;
}

/// The q-quantile of `sorted` (nearest rank).
double quantile(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      std::lround(q * static_cast<double>(sorted.size() - 1)));
  return sorted[rank];
}

int run_overhead(const BenchArgs& args, double inject) {
  std::printf("== Observability overhead guard: off (null checks) vs on "
              "(metrics + flight, no trace) ==\n\n");
  harness::Scenario off = obs_scenario(engine::Protocol::DiemBft, args);
  harness::Scenario on = off;
  on.obs.enabled = true;
  on.obs.trace = false;

  // Each side of a pair repeats the scenario until it costs >= 1 s of CPU,
  // so timer resolution and scheduler blips are small against the 5%
  // budget. Two warm-up runs (caches, allocator) size the repeat count
  // from the faster one, so a slow first run cannot shrink the samples.
  constexpr double kMinSampleSeconds = 1.0;
  constexpr int kPairs = 9;
  constexpr double kBudget = 1.05;
  const double warm =
      std::min(cpu_sample(off, 1, 0.0), cpu_sample(on, 1, 0.0));
  const int reps = std::max(
      1, static_cast<int>(std::ceil(kMinSampleSeconds / std::max(warm, 1e-3))));
  if (inject > 0) {
    std::printf("self-test: obs-on samples inflated by %+.1f%%\n",
                inject * 100.0);
  }

  // Interleave, alternating which side runs first, so load drift and
  // order effects hit both variants alike.
  std::vector<double> ratios;
  double off_total = 0, on_total = 0;
  for (int pair = 0; pair < kPairs; ++pair) {
    double off_s = 0, on_s = 0;
    if (pair % 2 == 0) {
      off_s = cpu_sample(off, reps, 0.0);
      on_s = cpu_sample(on, reps, inject);
    } else {
      on_s = cpu_sample(on, reps, inject);
      off_s = cpu_sample(off, reps, 0.0);
    }
    off_total += off_s;
    on_total += on_s;
    ratios.push_back(on_s / off_s);
  }
  std::sort(ratios.begin(), ratios.end());
  const double median = quantile(ratios, 0.5);
  std::printf("%d pairs x %d runs per side: off %.2fs  on %.2fs CPU in total\n",
              kPairs, reps, off_total, on_total);
  std::printf("on/off CPU ratio: median %.4f (%+.1f%%)  quartiles "
              "%.4f..%.4f  range %.4f..%.4f\n",
              median, (median - 1.0) * 100.0, quantile(ratios, 0.25),
              quantile(ratios, 0.75), ratios.front(), ratios.back());
  if (median > kBudget) {
    std::fprintf(stderr,
                 "FAIL: observability-on median CPU ratio %.4f exceeds the "
                 "5%% overhead budget (1.05)\n",
                 median);
    return 1;
  }
  std::printf("OK: within the 5%% budget\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our extra flags before the shared parser (which aborts on
  // unknown flags by contract).
  bool overhead = false;
  double inject = 0.0;
  std::vector<char*> rest;
  rest.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--overhead") == 0) {
      overhead = true;
    } else if (i > 0 && std::strcmp(argv[i], "--inject-slowdown") == 0 &&
               i + 1 < argc) {
      inject = std::strtod(argv[++i], nullptr);
    } else {
      rest.push_back(argv[i]);
    }
  }
  const BenchArgs args = parse_args(static_cast<int>(rest.size()), rest.data());
  if (overhead) return run_overhead(args, inject);

  std::printf("== Traced conformance smoke: one scenario, three engines, "
              "identical metric vocabulary ==\n\n");

  std::uint64_t seed = 42;
  std::vector<harness::Scenario> sweep;
  for (const engine::Protocol protocol : engine::kAllProtocols) {
    harness::Scenario s = obs_scenario(protocol, args);
    s.obs.enabled = true;
    s.obs.trace = true;
    s.trace_path =
        std::string("TRACE_") + engine::protocol_name(protocol) + ".json";
    seed = s.seed;
    sweep.push_back(std::move(s));
  }
  const std::vector<harness::ScenarioResult> results =
      run_scenarios(sweep, args.jobs);

  // The executable conformance pin: every engine's merged snapshot carries
  // the full vocabulary, so the key sets must be byte-identical.
  for (std::size_t i = 1; i < results.size(); ++i) {
    auto keys = [](const harness::ScenarioResult& r) {
      std::vector<std::string> out;
      for (const auto& [name, value] : r.counters) out.push_back(name);
      return out;
    };
    if (keys(results[i]) != keys(results[0])) {
      std::fprintf(stderr, "FAIL: metric key sets differ between %s and %s\n",
                   engine::protocol_name(sweep[0].protocol),
                   engine::protocol_name(sweep[i].protocol));
      return 1;
    }
  }

  harness::Table counters_table({"metric", "DiemBFT", "HotStuff", "Streamlet"});
  for (const auto& [name, value] : results[0].counters) {
    std::vector<std::string> row{name};
    for (const harness::ScenarioResult& r : results) {
      row.push_back(std::to_string(r.counters.at(name)));
    }
    counters_table.add_row(std::move(row));
  }

  harness::Table latency_table({"engine", "commit p50 (s)", "commit p99 (s)",
                                "strongest p50 (s)", "strongest p99 (s)"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const harness::ScenarioResult& r = results[i];
    const obs::HistogramSummary strongest =
        r.latency.empty() ? obs::HistogramSummary{} : r.latency.back().hist;
    latency_table.add_row(
        {engine::protocol_name(sweep[i].protocol),
         harness::Table::num(to_seconds(r.commit_latency.p50), 3),
         harness::Table::num(to_seconds(r.commit_latency.p99), 3),
         harness::Table::num(to_seconds(strongest.p50), 3),
         harness::Table::num(to_seconds(strongest.p99), 3)});
  }

  std::printf("%s\n%s\n", counters_table.render().c_str(),
              latency_table.render().c_str());
  std::printf("Wrote TRACE_<engine>.json for each run — load them in "
              "Perfetto (ui.perfetto.dev) or chrome://tracing.\n");
  std::vector<std::pair<std::string, std::string>> manifests;
  for (const harness::Scenario& s : sweep) {
    manifests.emplace_back(engine::protocol_name(s.protocol),
                           s.manifest().render_json());
  }
  if (!args.json_path.empty() &&
      !write_json_artifact(args.json_path, "tab_obs", seed, args.smoke,
                           {{"counters", counters_table},
                            {"latency", latency_table}},
                           manifests)) {
    return 1;
  }
  return 0;
}
