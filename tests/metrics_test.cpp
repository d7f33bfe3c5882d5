// Harness metrics: the Sec.-4 aggregation ("average over all blocks over
// all replicas"), window filtering, coverage, ledger summaries, plus the
// scenario builder's derived values.
#include <gtest/gtest.h>

#include "sftbft/harness/metrics.hpp"
#include "sftbft/harness/scenario.hpp"
#include "sftbft/harness/table.hpp"

namespace sftbft::harness {
namespace {

types::Block block_with(Round round, SimTime created) {
  types::Block block;
  block.round = round;
  block.height = round;
  block.created_at = created;
  block.seal();
  return block;
}

TEST(StrengthLatencyTracker, CreditsLevelsUpToStrength) {
  StrengthLatencyTracker tracker(/*n=*/2, {1, 2, 3});
  const types::Block b = block_with(1, 1000);
  tracker.on_commit(0, b, 2, 3000);  // credits levels 1 and 2
  tracker.on_commit(0, b, 3, 5000);  // credits level 3
  const auto results = tracker.results();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].samples, 1u);
  EXPECT_DOUBLE_EQ(results[0].mean_latency_s, 0.002);
  EXPECT_DOUBLE_EQ(results[1].mean_latency_s, 0.002);
  EXPECT_DOUBLE_EQ(results[2].mean_latency_s, 0.004);
}

TEST(StrengthLatencyTracker, NoDoubleCreditPerReplica) {
  StrengthLatencyTracker tracker(2, {1});
  const types::Block b = block_with(1, 0);
  tracker.on_commit(0, b, 1, 100);
  tracker.on_commit(0, b, 2, 200);  // level 1 already credited for replica 0
  const auto results = tracker.results();
  EXPECT_EQ(results[0].samples, 1u);
}

TEST(StrengthLatencyTracker, AveragesAcrossReplicasAndBlocks) {
  StrengthLatencyTracker tracker(2, {1});
  const types::Block a = block_with(1, 0);
  const types::Block b = block_with(2, 1000);
  tracker.on_commit(0, a, 1, 1000);   // 1ms
  tracker.on_commit(1, a, 1, 3000);   // 3ms
  tracker.on_commit(0, b, 1, 3000);   // 2ms
  const auto results = tracker.results();
  EXPECT_EQ(results[0].samples, 3u);
  EXPECT_EQ(results[0].blocks, 2u);
  EXPECT_DOUBLE_EQ(results[0].mean_latency_s, 0.002);
}

TEST(StrengthLatencyTracker, WindowExcludesBlocks) {
  StrengthLatencyTracker tracker(1, {1});
  tracker.on_commit(0, block_with(1, 50), 1, 100);
  tracker.on_commit(0, block_with(2, 500), 1, 600);
  tracker.on_commit(0, block_with(3, 950), 1, 1000);
  tracker.set_window(100, 900);
  const auto results = tracker.results();
  EXPECT_EQ(results[0].samples, 1u);  // only the middle block
  EXPECT_EQ(tracker.window_blocks(), 1u);
}

TEST(StrengthLatencyTracker, CoverageFraction) {
  StrengthLatencyTracker tracker(/*n=*/4, {1});
  const types::Block b = block_with(1, 0);
  tracker.on_commit(0, b, 1, 10);
  tracker.on_commit(1, b, 1, 20);
  const auto results = tracker.results();
  // 2 of 4 replicas reached level 1 for the single block in window.
  EXPECT_DOUBLE_EQ(results[0].coverage, 0.5);
}

TEST(LedgerSummary, ComputesThroughputAndLatency) {
  chain::Ledger ledger;
  for (Round r = 1; r <= 4; ++r) {
    types::Block b = block_with(r, r * 1000);
    b.payload.txns.resize(10);
    b.seal();
    ledger.commit(b, 1, r * 1000 + 500, b.payload.txns.size());
  }
  const LedgerSummary summary =
      summarize_ledger(ledger, seconds(1), 0, seconds(1));
  EXPECT_EQ(summary.committed_blocks, 4u);
  EXPECT_EQ(summary.committed_txns, 40u);
  EXPECT_DOUBLE_EQ(summary.mean_regular_latency_s, 0.0005);
  EXPECT_DOUBLE_EQ(summary.txns_per_sec, 40.0);
}

TEST(Scenario, StrengthLevelsSpanFToTwoF) {
  Scenario s;
  s.n = 100;  // f = 33
  const auto levels = s.strength_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), 33u);
  EXPECT_EQ(levels.back(), 66u);
  EXPECT_TRUE(std::is_sorted(levels.begin(), levels.end()));
}

TEST(Scenario, DefaultTimeoutCoversExpectedRound) {
  Scenario s;
  s.topo = Scenario::Topo::Symmetric3;
  s.delta = millis(100);
  s.leader_processing = millis(80);
  EXPECT_GT(s.default_timeout(), s.expected_round());
}

TEST(Scenario, DeploymentConfigReflectsFields) {
  Scenario s;
  s.n = 10;
  s.topo = Scenario::Topo::Uniform;
  s.delta = millis(5);
  s.extra_wait = millis(30);
  s.fbft = true;
  const auto config = s.to_deployment_config();
  EXPECT_EQ(config.protocol, engine::Protocol::DiemBft);
  EXPECT_EQ(config.n, 10u);
  EXPECT_EQ(config.topology.size(), 10u);
  EXPECT_TRUE(config.chained.fbft_mode);
  EXPECT_EQ(config.chained.mode, consensus::CoreMode::Plain);  // forced
  ASSERT_TRUE(config.chained.extra_wait);
  EXPECT_EQ(config.chained.extra_wait(1), millis(30));
  EXPECT_FALSE(config.chained.attach_commit_log);  // disabled under FBFT
}

TEST(Scenario, DeploymentConfigCarriesStreamletFields) {
  Scenario s;
  s.n = 7;
  s.topo = Scenario::Topo::Uniform;
  s.protocol = engine::Protocol::Streamlet;
  s.mode = consensus::CoreMode::SftMarker;
  s.streamlet_delta_bound = millis(25);
  s.streamlet_echo = false;
  const auto config = s.to_deployment_config();
  EXPECT_EQ(config.protocol, engine::Protocol::Streamlet);
  EXPECT_TRUE(config.streamlet.sft);
  EXPECT_FALSE(config.streamlet.echo);
  EXPECT_EQ(config.streamlet.delta_bound, millis(25));
}

TEST(Scenario, StragglersGetExtraDelay) {
  Scenario s;
  s.n = 10;
  s.topo = Scenario::Topo::Uniform;
  s.straggler_count = 2;
  s.straggler_extra = millis(40);
  const auto topo = s.build_topology();
  std::uint32_t stragglers = 0;
  for (ReplicaId id = 0; id < 10; ++id) {
    if (topo.extra_delay(id) == millis(40)) ++stragglers;
  }
  EXPECT_EQ(stragglers, 2u);
}

TEST(Table, RendersAlignedAndCsv) {
  Table table({"a", "long-header"});
  table.add_row({"1", "x"});
  table.add_row({"22", "yy"});
  const std::string text = table.render();
  EXPECT_NE(text.find("long-header"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
  EXPECT_EQ(table.render_csv(), "a,long-header\n1,x\n22,yy\n");
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
}

}  // namespace
}  // namespace sftbft::harness
