// Safety audits on full clusters (Definition 1 / Theorem 1).
//
// A cross-replica auditor records every commit from every replica and
// verifies that no two replicas ever commit conflicting blocks at one
// height, at any strength — across honest, crashy, silent-Byzantine and
// stress (tiny-timeout, fork-heavy) schedules, and across all three modes.
#include <gtest/gtest.h>

#include <map>

#include "sftbft/engine/deployment.hpp"

namespace sftbft {
namespace {

using consensus::CoreMode;
using engine::Deployment;
using engine::DeploymentConfig;
using engine::FaultSpec;

/// Cross-replica commit auditor: one committed id per height, ever.
struct SafetyAuditor {
  std::map<Height, types::BlockId> committed;
  std::uint64_t violations = 0;
  std::uint64_t commits = 0;

  Deployment::CommitObserver observer() {
    return [this](ReplicaId, const types::Block& block, std::uint32_t,
                  SimTime) {
      ++commits;
      auto [it, inserted] = committed.try_emplace(block.height, block.id);
      if (!inserted && it->second != block.id) ++violations;
    };
  }
};

DeploymentConfig stress_config(std::uint32_t n, CoreMode mode,
                            std::uint64_t seed) {
  DeploymentConfig config;
  config.n = n;
  config.chained.mode = mode;
  // Deliberately tight timeout: rounds race the timer, forks and timeouts
  // are common — the adversarial-scheduling regime for safety.
  config.chained.base_timeout = millis(45);
  config.chained.leader_processing = millis(3);
  config.chained.max_batch = 5;
  config.topology = net::Topology::uniform(n, millis(10));
  config.net.jitter = millis(8);
  config.seed = seed;
  return config;
}

class SafetySweep
    : public ::testing::TestWithParam<std::tuple<CoreMode, std::uint64_t>> {};

TEST_P(SafetySweep, NoConflictingCommitsUnderStress) {
  const auto [mode, seed] = GetParam();
  SafetyAuditor auditor;
  Deployment cluster(stress_config(7, mode, seed), auditor.observer());
  cluster.start();
  // LedgerConflict (same-replica conflict) would throw out of run_for.
  cluster.run_for(seconds(20));
  EXPECT_EQ(auditor.violations, 0u);
  EXPECT_GT(auditor.commits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, SafetySweep,
    ::testing::Combine(::testing::Values(CoreMode::Plain, CoreMode::SftMarker,
                                         CoreMode::SftIntervals),
                       ::testing::Values(1u, 7u, 23u, 99u)));

TEST(Safety, HoldsWithCrashFaults) {
  SafetyAuditor auditor;
  auto config = stress_config(7, CoreMode::SftMarker, 3);
  config.faults.resize(7);
  config.faults[1] = FaultSpec::crash_at_time(seconds(2));
  config.faults[2] = FaultSpec::crash_at_time(seconds(4));
  Deployment cluster(config, auditor.observer());
  cluster.start();
  cluster.run_for(seconds(15));
  EXPECT_EQ(auditor.violations, 0u);
}

TEST(Safety, HoldsWithSilentByzantine) {
  SafetyAuditor auditor;
  auto config = stress_config(10, CoreMode::SftIntervals, 4);
  config.faults.resize(10);
  config.faults[4] = FaultSpec::silent();
  config.faults[5] = FaultSpec::silent();
  config.faults[6] = FaultSpec::silent();  // t = f = 3
  Deployment cluster(config, auditor.observer());
  cluster.start();
  cluster.run_for(seconds(15));
  EXPECT_EQ(auditor.violations, 0u);
}

TEST(Safety, HoldsUnderMessageLoss) {
  // Drop 5% of all messages (pre-GST-style chaos): liveness degrades but
  // commits must stay consistent.
  SafetyAuditor auditor;
  Deployment cluster(stress_config(7, CoreMode::SftMarker, 5),
                  auditor.observer());
  Rng drop_rng(77);
  cluster.set_link_filter(
      [&drop_rng](ReplicaId from, ReplicaId to) {
        return from == to || !drop_rng.chance(0.05);
      });
  cluster.start();
  cluster.run_for(seconds(20));
  EXPECT_EQ(auditor.violations, 0u);
}

TEST(Safety, StrengthMonotoneAndBounded) {
  // Per-replica: strength never exceeds 2f and ratchets monotonically.
  const std::uint32_t f = 2;
  std::map<std::pair<ReplicaId, Height>, std::uint32_t> last;
  Deployment cluster(
      stress_config(7, CoreMode::SftMarker, 11),
      [&last, f](ReplicaId replica, const types::Block& block,
                 std::uint32_t strength, SimTime) {
        EXPECT_LE(strength, 2 * f);
        auto key = std::make_pair(replica, block.height);
        auto it = last.find(key);
        if (it != last.end()) EXPECT_GT(strength, it->second);
        last[key] = strength;
      });
  cluster.start();
  cluster.run_for(seconds(10));
  EXPECT_FALSE(last.empty());
}

TEST(Safety, CommitLogOverstatementsBlockVotes) {
  // Sec.-5 validation: a replica must refuse to vote for a proposal whose
  // commit log claims more strength than locally derivable. We check the
  // validation path directly through the cluster by confirming honest runs
  // never trigger the rejection (logs are consistent), via progress.
  SafetyAuditor auditor;
  auto config = stress_config(7, CoreMode::SftMarker, 13);
  config.chained.attach_commit_log = true;
  Deployment cluster(config, auditor.observer());
  cluster.start();
  cluster.run_for(seconds(10));
  EXPECT_GT(cluster.ledger(0).committed_blocks(), 20u);
  EXPECT_EQ(auditor.violations, 0u);
}

}  // namespace
}  // namespace sftbft
