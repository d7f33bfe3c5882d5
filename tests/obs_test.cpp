// sftbft::obs: histogram bucket/percentile correctness (merge included),
// Chrome-trace JSON well-formedness, flight-recorder ring eviction, and the
// cross-engine observability conformance the enum vocabulary promises —
// identical metric key sets on DiemBFT, chained HotStuff, and Streamlet,
// and the same block-milestone event names in each engine's trace.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <map>
#include <set>

#include "sftbft/harness/perf_gate.hpp"
#include "sftbft/harness/scenario.hpp"
#include "sftbft/obs/metrics.hpp"
#include "sftbft/obs/observer.hpp"
#include "sftbft/obs/trace.hpp"

namespace sftbft::obs {
namespace {

// ---------------------------------------------------------------------------
// Histogram

TEST(Histogram, LowValuesLandInExactUnitBuckets) {
  for (std::uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    const std::size_t b = Histogram::bucket_for(v);
    EXPECT_EQ(Histogram::bucket_lower(b), v);
    EXPECT_EQ(Histogram::bucket_upper(b), v + 1);
  }
}

TEST(Histogram, BucketBoundsContainTheirValues) {
  for (const std::uint64_t v :
       {16ull, 17ull, 31ull, 32ull, 1000ull, 123456789ull,
        (1ull << 40) + 12345ull, (1ull << 61)}) {
    const std::size_t b = Histogram::bucket_for(v);
    EXPECT_LE(Histogram::bucket_lower(b), v) << v;
    EXPECT_LT(v, Histogram::bucket_upper(b)) << v;
  }
}

TEST(Histogram, RelativeQuantizationErrorIsBounded) {
  // Bucket width / lower bound <= 2^-kSubBits for all non-unit buckets.
  for (const std::uint64_t v : {100ull, 999ull, 65536ull, 1000000ull}) {
    const std::size_t b = Histogram::bucket_for(v);
    const double width = static_cast<double>(Histogram::bucket_upper(b) -
                                             Histogram::bucket_lower(b));
    const double lower = static_cast<double>(Histogram::bucket_lower(b));
    EXPECT_LE(width / lower, 1.0 / Histogram::kSubBuckets) << v;
  }
}

TEST(Histogram, SummaryOnUniformRange) {
  Histogram h;
  for (std::int64_t v = 1; v <= 1000; ++v) h.record(v);
  const HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, 1000);
  EXPECT_DOUBLE_EQ(s.mean, 500.5);
  // Percentiles are bucket midpoints: exact to 6.25% of the value.
  EXPECT_NEAR(static_cast<double>(s.p50), 500.0, 500.0 / 16 + 1);
  EXPECT_NEAR(static_cast<double>(s.p90), 900.0, 900.0 / 16 + 1);
  EXPECT_NEAR(static_cast<double>(s.p99), 990.0, 990.0 / 16 + 1);
  EXPECT_NEAR(static_cast<double>(s.p999), 999.0, 999.0 / 16 + 1);
}

TEST(Histogram, PercentileEdgeCases) {
  Histogram empty;
  EXPECT_EQ(empty.percentile(0.5), 0);
  EXPECT_EQ(empty.summary().count, 0u);

  Histogram one;
  one.record(42);
  EXPECT_EQ(one.summary().min, 42);
  EXPECT_EQ(one.summary().max, 42);
  // 42 sits in a linear sub-bucket of width 4: midpoint within the bound.
  EXPECT_NEAR(static_cast<double>(one.percentile(0.5)), 42.0, 42.0 / 16 + 1);

  Histogram neg;
  neg.record(-5);  // clamps to 0 rather than UB
  EXPECT_EQ(neg.summary().min, 0);
  EXPECT_EQ(neg.count(), 1u);
}

TEST(Histogram, MergeMatchesSingleHistogramExactly) {
  // Positional bucket addition: merging per-replica histograms must be
  // bucket-identical to recording every sample into one histogram — the
  // property cross-replica percentile aggregation rests on.
  Histogram a, b, all;
  std::uint64_t x = 1;
  for (int i = 0; i < 2000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const auto v = static_cast<std::int64_t>(x >> 34);
    (i % 2 == 0 ? a : b).record(v);
    all.record(v);
  }
  a.merge(b);
  const HistogramSummary merged = a.summary();
  const HistogramSummary single = all.summary();
  EXPECT_EQ(merged.count, single.count);
  EXPECT_EQ(merged.min, single.min);
  EXPECT_EQ(merged.max, single.max);
  EXPECT_DOUBLE_EQ(merged.mean, single.mean);
  EXPECT_EQ(merged.p50, single.p50);
  EXPECT_EQ(merged.p90, single.p90);
  EXPECT_EQ(merged.p99, single.p99);
  EXPECT_EQ(merged.p999, single.p999);
}

// ---------------------------------------------------------------------------
// Registry

TEST(Registry, CounterSnapshotCarriesTheFullVocabulary) {
  Registry r;
  const auto snapshot = r.counter_snapshot();
  EXPECT_EQ(snapshot.size(), static_cast<std::size_t>(Counter::kCount_));
  for (const auto& [name, value] : snapshot) {
    EXPECT_EQ(value, 0u) << name;
    EXPECT_NE(name, "?");
  }
}

TEST(Registry, MergeAddsCountersAndBucketMergesHistograms) {
  Registry a, b;
  a.add(Counter::kCommits, 3);
  b.add(Counter::kCommits, 4);
  a.observe(Hist::kCommitLatencyUs, 100);
  b.observe(Hist::kCommitLatencyUs, 200);
  a.merge(b);
  EXPECT_EQ(a.counter(Counter::kCommits), 7u);
  EXPECT_EQ(a.histogram(Hist::kCommitLatencyUs).count(), 2u);
}

// ---------------------------------------------------------------------------
// Trace JSON well-formedness (minimal structural JSON parser — no library).

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  [[nodiscard]] bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }
  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(Trace, ChromeTraceJsonIsWellFormed) {
  std::vector<TraceEvent> events;
  events.push_back(span_event("block", "committed", 3, 7, 1000, 251000,
                              {"round", 9}, {"strength", 2}));
  events.push_back(instant_event("pacemaker", "timeout", 1, 5000,
                                 {"round", 4}));
  events.push_back(instant_event("dissem", "batch_packed", 0, 10));
  const std::string json = chrome_trace_json(events, /*n=*/4);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
}

TEST(Trace, EmptyTraceIsStillValidJson) {
  const std::string json = chrome_trace_json({}, 0);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
}

// ---------------------------------------------------------------------------
// Flight recorder

TEST(FlightRecorder, RingEvictsOldestAndCountsEvictions) {
  FlightRecorder recorder(/*n=*/2, /*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    recorder.append(instant_event("pacemaker", "round_enter", 0,
                                  static_cast<SimTime>(i * 100)));
  }
  recorder.append(instant_event("pacemaker", "round_enter", 1, 50));
  EXPECT_EQ(recorder.size(0), 4u);
  EXPECT_EQ(recorder.evicted(0), 6u);
  EXPECT_EQ(recorder.size(1), 1u);
  EXPECT_EQ(recorder.evicted(1), 0u);

  // The ring keeps the most recent events; snapshot is globally ts-sorted.
  const std::vector<TraceEvent> snap = recorder.snapshot();
  ASSERT_EQ(snap.size(), 5u);
  EXPECT_EQ(snap.front().ts, 50);
  EXPECT_EQ(snap.back().ts, 900);
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LE(snap[i - 1].ts, snap[i].ts);
  }

  const std::string dump = recorder.dump();
  EXPECT_NE(dump.find("pacemaker/round_enter"), std::string::npos);
}

TEST(FlightRecorder, WrappedRingKeepsAppendOrderAtEqualTimestamps) {
  // snapshot() sorts stably by ts, so equal-ts events keep ring order: the
  // oldest retained first, across the ring's wrap point.
  FlightRecorder recorder(/*n=*/1, /*capacity=*/3);
  for (std::uint64_t i = 0; i < 5; ++i) {
    recorder.append(instant_event("dissem", "pack", 0, 100, {"seq", i}));
  }
  EXPECT_EQ(recorder.evicted(0), 2u);
  std::vector<std::uint64_t> seqs;
  for (const TraceEvent& event : recorder.snapshot()) {
    seqs.push_back(event.args[0].value);
  }
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{2, 3, 4}));
  recorder.append(instant_event("dissem", "pack", 0, 100, {"seq", 5}));
  seqs.clear();
  for (const TraceEvent& event : recorder.snapshot()) {
    seqs.push_back(event.args[0].value);
  }
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{3, 4, 5}));
}

// ---------------------------------------------------------------------------
// Cross-engine conformance through real scenario runs

harness::Scenario small_scenario(engine::Protocol protocol) {
  harness::Scenario s;
  s.protocol = protocol;
  s.n = 7;
  s.topo = harness::Scenario::Topo::Uniform;
  s.delta = millis(20);
  s.jitter = millis(5);
  s.jitter_frac = 0;
  s.leader_processing = millis(10);
  s.streamlet_delta_bound = millis(50);
  s.verify_signatures = false;
  s.max_batch = 10;
  s.txn_size_bytes = 450;
  s.duration = seconds(12);
  s.warmup = seconds(1);
  s.tail = seconds(2);
  s.seed = 7;
  s.obs.enabled = true;
  return s;
}

TEST(ObsConformance, AllThreeEnginesExposeIdenticalMetricKeys) {
  std::vector<harness::ScenarioResult> results;
  for (const engine::Protocol protocol : engine::kAllProtocols) {
    results.push_back(harness::run_scenario(small_scenario(protocol)));
  }
  auto keys = [](const harness::ScenarioResult& r) {
    std::vector<std::string> out;
    for (const auto& [name, value] : r.counters) out.push_back(name);
    return out;
  };
  ASSERT_FALSE(results[0].counters.empty());
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(keys(results[i]), keys(results[0]));
  }
  for (const harness::ScenarioResult& r : results) {
    // The run made progress and the shared-kernel instrumentation saw it.
    EXPECT_GT(r.counters.at("consensus.commits"), 0u);
    EXPECT_GT(r.counters.at("consensus.strong_commits"), 0u);
    EXPECT_GT(r.counters.at("consensus.proposals_sent"), 0u);
    EXPECT_GT(r.counters.at("consensus.votes_sent"), 0u);
    EXPECT_GT(r.counters.at("consensus.rounds_entered"), 0u);
    EXPECT_GT(r.counters.at("consensus.blocks_certified"), 0u);
    // Percentiles ride in every result (harness-side histograms).
    EXPECT_GT(r.commit_latency.count, 0u);
    EXPECT_GT(r.commit_latency.p50, 0);
    EXPECT_LE(r.commit_latency.p50, r.commit_latency.p99);
    // Satellite: decode accounting is surfaced, and clean runs drop nothing.
    EXPECT_EQ(r.decode_drops, 0u);
  }
}

TEST(ObsConformance, TracedRunWritesWellFormedChromeTraceJson) {
  harness::Scenario s = small_scenario(engine::Protocol::DiemBft);
  s.duration = seconds(5);
  s.trace_path = "obs_test_trace.json";  // cwd = the ctest build dir
  const harness::ScenarioResult r = harness::run_scenario(s);
  EXPECT_GT(r.summary.committed_blocks, 0u);

  std::ifstream in(s.trace_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_GT(json.size(), 2u);
  EXPECT_TRUE(JsonChecker(json).valid());
  // The block lifecycle made it into the trace.
  EXPECT_NE(json.find("\"committed\""), std::string::npos);
  EXPECT_NE(json.find("\"proposed\""), std::string::npos);
  std::remove(s.trace_path.c_str());
}

TEST(ObsConformance, FlowEventsAreWellFormedAndCounterTracksPresent) {
  // v2 trace contract, checked through a real parser (harness::JsonValue):
  // every 'f' flow end has exactly one matching 's' start with the same id,
  // start ids are unique, arrows never point backwards in time, and the
  // counter tracks (mempool depth, pacemaker round) made it into the
  // journal. The manifest rides as "otherData".
  harness::Scenario s = small_scenario(engine::Protocol::DiemBft);
  s.duration = seconds(5);
  s.trace_path = "obs_test_flow_trace.json";  // cwd = the ctest build dir
  const harness::ScenarioResult r = harness::run_scenario(s);
  EXPECT_GT(r.summary.committed_blocks, 0u);

  std::ifstream in(s.trace_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto doc = harness::JsonValue::parse(buffer.str());
  ASSERT_TRUE(doc.has_value());
  std::remove(s.trace_path.c_str());

  // Manifest: seed/engine/n/config digest embedded in the trace itself.
  const harness::JsonValue* other = doc->find("otherData");
  ASSERT_NE(other, nullptr);
  ASSERT_NE(other->find("engine"), nullptr);
  EXPECT_EQ(other->find("engine")->string, "diembft");
  ASSERT_NE(other->find("seed"), nullptr);
  EXPECT_EQ(other->find("seed")->number, 7.0);
  ASSERT_NE(other->find("config_digest"), nullptr);

  const harness::JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type, harness::JsonValue::Type::Array);

  std::map<double, double> starts;  // flow id -> ts
  std::vector<std::pair<double, double>> finishes;
  bool saw_mempool_counter = false;
  bool saw_round_counter = false;
  for (const harness::JsonValue& event : events->array) {
    const harness::JsonValue* ph = event.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "s" || ph->string == "f") {
      const harness::JsonValue* id = event.find("id");
      ASSERT_NE(id, nullptr) << "flow event without id";
      const harness::JsonValue* ts = event.find("ts");
      ASSERT_NE(ts, nullptr);
      if (ph->string == "s") {
        // Start ids are unique (one arrow per delivered frame).
        EXPECT_TRUE(starts.emplace(id->number, ts->number).second)
            << "duplicate flow start id " << id->number;
      } else {
        finishes.emplace_back(id->number, ts->number);
        // The finish half binds to its enclosing slice.
        const harness::JsonValue* bp = event.find("bp");
        ASSERT_NE(bp, nullptr);
        EXPECT_EQ(bp->string, "e");
      }
    } else if (ph->string == "C") {
      const harness::JsonValue* name = event.find("name");
      ASSERT_NE(name, nullptr);
      if (name->string == "mempool_depth") saw_mempool_counter = true;
      if (name->string == "round") saw_round_counter = true;
    }
  }
  ASSERT_FALSE(starts.empty()) << "no flow events in a traced run";
  ASSERT_EQ(starts.size(), finishes.size());
  for (const auto& [id, ts] : finishes) {
    const auto it = starts.find(id);
    ASSERT_NE(it, starts.end()) << "flow finish without start, id " << id;
    EXPECT_LE(it->second, ts) << "flow arrow points backwards, id " << id;
  }
  EXPECT_TRUE(saw_mempool_counter);
  EXPECT_TRUE(saw_round_counter);
}

TEST(ObsConformance, AllThreeEnginesEmitTheMilestoneVocabulary) {
  // Every engine reports its block lifecycle through obs::LifecycleProbe,
  // so a traced run on each carries the full milestone vocabulary the
  // critical-path analyzer reads back.
  for (const engine::Protocol protocol : engine::kAllProtocols) {
    harness::Scenario s = small_scenario(protocol);
    s.duration = seconds(5);
    s.trace_path = "obs_test_vocabulary_trace.json";  // cwd = ctest build dir
    const harness::ScenarioResult r = harness::run_scenario(s);
    EXPECT_GT(r.summary.committed_blocks, 0u);

    std::ifstream in(s.trace_path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    const auto doc = harness::JsonValue::parse(buffer.str());
    ASSERT_TRUE(doc.has_value());
    std::remove(s.trace_path.c_str());
    const harness::JsonValue* events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);

    std::set<std::string> names;
    for (const harness::JsonValue& event : events->array) {
      if (const harness::JsonValue* name = event.find("name")) {
        names.insert(name->string);
      }
    }
    for (const char* milestone :
         {"proposed", "received", "voted", "certified", "vote_f1",
          "vote_quorum", "committed", "round_enter"}) {
      EXPECT_TRUE(names.contains(milestone))
          << engine::protocol_name(protocol) << " trace lacks " << milestone;
    }
  }
}

TEST(ObsConformance, WireDelayHistogramsCoverTheTraffic) {
  // Satellite: per-WireType transit/queueing distributions ride in every
  // observed run. Transit >= the 20ms uniform link floor; queueing =
  // transit - base is bounded by jitter (0 frac, 5ms cap here).
  harness::Scenario s = small_scenario(engine::Protocol::DiemBft);
  s.duration = seconds(5);
  const harness::ScenarioResult r = harness::run_scenario(s);
  ASSERT_FALSE(r.wire_delays.empty());
  ASSERT_TRUE(r.wire_delays.contains("proposal"));
  ASSERT_TRUE(r.wire_delays.contains("vote"));
  for (const auto& [type, delays] : r.wire_delays) {
    EXPECT_GT(delays.transit.count, 0u) << type;
    EXPECT_GE(delays.transit.min, millis(20)) << type;
    EXPECT_EQ(delays.transit.count, delays.queueing.count) << type;
    EXPECT_LE(delays.queueing.max, millis(5) + 1) << type;
  }
}

TEST(Observer, WireDelaysListOnlyLabelsThatSawDeliveries) {
  Observer obs(ObsConfig{.enabled = true}, 4);
  EXPECT_TRUE(obs.wire_delays().empty());
  obs.observe_wire(net::WireLabel::kVote, millis(20), 0);
  obs.observe_wire(net::WireLabel::kEcho, millis(25), millis(5));
  obs.observe_wire(net::WireLabel::kVote, millis(30), millis(10));
  const std::map<std::string, WireDelayStats> delays = obs.wire_delays();
  ASSERT_EQ(delays.size(), 2u);
  EXPECT_EQ(delays.begin()->first, "echo");
  EXPECT_EQ(delays.at("echo").transit_us.count(), 1u);
  EXPECT_EQ(delays.at("vote").transit_us.count(), 2u);
  EXPECT_EQ(delays.at("vote").queueing_us.count(), 2u);
}

TEST(ObsConformance, AuditorViolationDumpsFlightRecorder) {
  // The Appendix-C strawman: naive indirect counting under the Fig. 9
  // coalition produces unsound claims; the first violation must snapshot
  // the flight recorder into the result.
  harness::Scenario s = small_scenario(engine::Protocol::DiemBft);
  s.counting = consensus::CountingRule::NaiveAllIndirect;
  s.byzantine_count = 2;
  s.byzantine.strategies = {adversary::Strategy::EquivocatingLeader,
                            adversary::Strategy::AmnesiaVoter};
  s.audit = true;
  const harness::ScenarioResult r = harness::run_scenario(s);
  EXPECT_GT(r.auditor_violations, 0u);
  ASSERT_FALSE(r.flight_dump.empty());
  // The dump leads with the violation verdict ("unsound claim" /
  // "conflicting commits", both carry the claimed x), then the timeline.
  EXPECT_NE(r.flight_dump.find("x="), std::string::npos)
      << r.flight_dump.substr(0, 200);
  EXPECT_NE(r.flight_dump.find("pacemaker/round_enter"), std::string::npos);
}

TEST(ObsConformance, DisabledObservabilityProducesNoOutputs) {
  harness::Scenario s = small_scenario(engine::Protocol::DiemBft);
  s.obs.enabled = false;
  s.duration = seconds(5);
  const harness::ScenarioResult r = harness::run_scenario(s);
  EXPECT_GT(r.summary.committed_blocks, 0u);
  EXPECT_TRUE(r.counters.empty());
  EXPECT_TRUE(r.flight_dump.empty());
  // Harness-side percentiles are NOT behind the switch.
  EXPECT_GT(r.commit_latency.count, 0u);
}

}  // namespace
}  // namespace sftbft::obs
