// End-to-end integration tests: full clusters on the simulated network.
//
// These exercise the whole stack — pacemaker, proposing, voting, QC
// formation, 3-chain commits, SFT endorsement tracking — under honest and
// faulty schedules, and check the paper's headline guarantees at small n.
#include <gtest/gtest.h>

#include "sftbft/engine/deployment.hpp"
#include "sftbft/harness/metrics.hpp"

namespace sftbft {
namespace {

using consensus::CoreMode;
using engine::Deployment;
using engine::DeploymentConfig;
using engine::FaultSpec;

DeploymentConfig small_cluster(std::uint32_t n, CoreMode mode,
                               std::uint64_t seed = 1) {
  DeploymentConfig config;
  config.n = n;
  config.chained.mode = mode;
  config.chained.base_timeout = millis(500);
  config.chained.leader_processing = millis(5);
  config.chained.max_batch = 10;
  config.topology = net::Topology::uniform(n, millis(10));
  config.net.jitter = millis(2);
  config.workload.target_pool_size = 100;
  config.seed = seed;
  return config;
}

TEST(Integration, FourReplicasCommitBlocks) {
  Deployment cluster(small_cluster(4, CoreMode::SftMarker));
  cluster.start();
  cluster.run_for(seconds(10));

  for (ReplicaId id = 0; id < 4; ++id) {
    const auto& ledger = cluster.ledger(id);
    EXPECT_GT(ledger.committed_blocks(), 20u) << "replica " << id;
    EXPECT_GT(ledger.committed_txns(), 0u);
  }
}

TEST(Integration, AllReplicasAgreeOnCommittedPrefix) {
  Deployment cluster(small_cluster(4, CoreMode::SftMarker));
  cluster.start();
  cluster.run_for(seconds(10));

  const auto& ledger0 = cluster.ledger(0);
  for (ReplicaId id = 1; id < 4; ++id) {
    const auto& ledger = cluster.ledger(id);
    const Height common =
        std::min(ledger0.tip().value_or(0), ledger.tip().value_or(0));
    ASSERT_GT(common, 0u);
    for (Height h = 1; h <= common; ++h) {
      ASSERT_TRUE(ledger0.is_committed(h));
      ASSERT_TRUE(ledger.is_committed(h));
      EXPECT_EQ(ledger0.at(h).block_id, ledger.at(h).block_id)
          << "height " << h << " replica " << id;
    }
  }
}

TEST(Integration, PlainModeMatchesDiemBftCommits) {
  Deployment cluster(small_cluster(4, CoreMode::Plain));
  cluster.start();
  cluster.run_for(seconds(10));
  const auto& ledger = cluster.ledger(0);
  EXPECT_GT(ledger.committed_blocks(), 20u);
  // Plain DiemBFT commits are exactly f-strong.
  for (const auto& entry : ledger.snapshot()) {
    EXPECT_EQ(entry.strength, 1u);  // f = 1 at n = 4
  }
}

TEST(Integration, StrengthRatchetsUpToTwoF) {
  Deployment cluster(small_cluster(4, CoreMode::SftMarker));
  cluster.start();
  cluster.run_for(seconds(10));
  const auto& ledger = cluster.ledger(0);
  // With no faults every replica endorses every block within n rounds, so
  // old-enough blocks reach 2f-strong (Theorem 2 with c = 0).
  const auto snapshot = ledger.snapshot();
  ASSERT_GT(snapshot.size(), 10u);
  EXPECT_EQ(snapshot[2].strength, 2u);  // 2f = 2 at n = 4
}

TEST(Integration, SevenReplicasIntervalMode) {
  Deployment cluster(small_cluster(7, CoreMode::SftIntervals));
  cluster.start();
  cluster.run_for(seconds(10));
  const auto& ledger = cluster.ledger(0);
  EXPECT_GT(ledger.committed_blocks(), 20u);
  EXPECT_EQ(ledger.snapshot()[2].strength, 4u);  // 2f = 4 at n = 7
}

TEST(Integration, SurvivesLeaderCrashes) {
  auto config = small_cluster(7, CoreMode::SftMarker);
  // Crash two replicas (f = 2) early. Placement note: with pure round-robin
  // rotation a certified round needs both its leader and its vote collector
  // (the next leader) alive, so commits need runs of >= 4 alive rotation
  // positions; adjacent crash ids keep such runs at n = 7. (Scattered faults
  // at tiny n can legitimately leave no 3 consecutive certifiable rounds.)
  config.faults.resize(7);
  config.faults[1] = FaultSpec::crash_at_time(seconds(2));
  config.faults[2] = FaultSpec::crash_at_time(seconds(3));
  Deployment cluster(config);
  cluster.start();
  cluster.run_for(seconds(20));

  const auto& ledger = cluster.ledger(0);
  EXPECT_GT(ledger.committed_blocks(), 10u);
  // Commits keep happening well after the crashes.
  const auto snapshot = ledger.snapshot();
  EXPECT_GT(snapshot.back().first_committed_at, seconds(10));
}

TEST(Integration, SilentByzantineDoesNotBlockProgress) {
  auto config = small_cluster(7, CoreMode::SftIntervals);
  config.faults.resize(7);
  config.faults[2] = FaultSpec::silent();
  config.faults[3] = FaultSpec::silent();  // adjacent — see crash test note
  Deployment cluster(config);
  cluster.start();
  cluster.run_for(seconds(20));
  EXPECT_GT(cluster.ledger(0).committed_blocks(), 10u);
}

TEST(Integration, DeterministicReplay) {
  auto run = [](std::uint64_t seed) {
    Deployment cluster(small_cluster(4, CoreMode::SftMarker, seed));
    cluster.start();
    cluster.run_for(seconds(5));
    std::vector<std::pair<Height, std::uint32_t>> out;
    for (const auto& entry : cluster.ledger(0).snapshot()) {
      out.emplace_back(entry.height, entry.strength);
    }
    return out;
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));  // different seeds shuffle jitter
}

TEST(Integration, MessageComplexityIsLinearPerBlock) {
  Deployment cluster(small_cluster(7, CoreMode::SftMarker));
  cluster.start();
  cluster.run_for(seconds(10));
  const auto& stats = cluster.net_stats();
  const auto blocks = cluster.ledger(0).committed_blocks();
  ASSERT_GT(blocks, 0u);
  const double per_block =
      static_cast<double>(stats.total_count()) / static_cast<double>(blocks);
  // Proposal multicast (n) + votes (n) + self-deliveries; comfortably linear:
  // allow 4n as the bound, far below the n^2 = 49 regime.
  EXPECT_LT(per_block, 4.0 * 7);
  EXPECT_EQ(stats.for_type(net::WireLabel::kExtraVote).count, 0u);
}

}  // namespace
}  // namespace sftbft
