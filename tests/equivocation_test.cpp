// Equivocating-leader scenario, driven through the adversary subsystem (the
// engine-level port of the old hand-scripted vote schedule; the original
// type-layer Appendix-C script survives as naive_counter_test.cpp, the
// regression guard for the counting rules themselves).
//
// A Byzantine leader (adversary::Strategy::EquivocatingLeader) shows
// conflicting same-round blocks to disjoint honest subsets via the real
// DiemBFT engine stack. Safety must hold, and the fork-side replicas'
// voting history must truthfully deny endorsement to the branch they
// conflicted with — the exact property the old scripted test pinned.
#include <gtest/gtest.h>

#include "sftbft/adversary/coalition.hpp"
#include "sftbft/engine/deployment.hpp"

namespace sftbft {
namespace {

using adversary::Strategy;
using engine::Deployment;
using engine::DeploymentConfig;
using engine::FaultSpec;

class EquivocationTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kN = 4;
  static constexpr ReplicaId kByzantine = 2;

  void SetUp() override {
    DeploymentConfig config;
    config.n = kN;
    config.chained.mode = consensus::CoreMode::SftMarker;
    config.chained.base_timeout = millis(400);
    config.chained.leader_processing = millis(5);
    config.chained.max_batch = 4;
    config.topology = net::Topology::uniform(kN, millis(10));
    config.net.jitter = millis(2);
    config.seed = 8;
    config.faults.resize(kN, FaultSpec::honest());
    config.faults[kByzantine] =
        FaultSpec::byzantine({Strategy::EquivocatingLeader});
    cluster_ = std::make_unique<Deployment>(std::move(config));
    cluster_->start();
    cluster_->run_for(seconds(10));
  }

  std::unique_ptr<Deployment> cluster_;
};

TEST_F(EquivocationTest, ForkSideVotesCarryTruthfulMarkers) {
  const adversary::Coalition* coalition = cluster_->coalition();
  ASSERT_NE(coalition, nullptr);
  ASSERT_GT(coalition->stats().equivocations, 0u) << "the attack never ran";
  ASSERT_FALSE(coalition->forks().empty());

  // At least one honest replica voted the losing fork of some equivocation:
  // its VoteHistory frontier keeps that block forever (nothing extends it),
  // and every later strong-vote's marker must deny the conflicting rounds.
  bool fork_side_found = false;
  for (ReplicaId id = 0; id < kN; ++id) {
    if (id == kByzantine) continue;
    const auto& core = cluster_->chained_core(id);
    const auto& frontier = core.vote_history().frontier();
    if (frontier.size() < 2) continue;  // never voted across forks
    fork_side_found = true;

    const auto tip_height = core.ledger().tip();
    ASSERT_TRUE(tip_height.has_value());
    const types::Block* tip =
        core.tree().get(core.ledger().at(*tip_height).block_id);
    ASSERT_NE(tip, nullptr);

    // The newest frontier entry is on the live chain; every older one is a
    // fork remnant whose round the truthful marker must cover.
    Round fork_round = 0;
    for (const auto& entry : frontier) {
      if (core.tree().conflicts(entry.block_id, tip->id)) {
        fork_round = std::max(fork_round, entry.round);
      }
    }
    ASSERT_GT(fork_round, 0u) << "frontier held no conflicting fork entry";
    EXPECT_GE(core.vote_history().marker_for(*tip), fork_round)
        << "replica " << id << " under-reports its conflicting history";
  }
  EXPECT_TRUE(fork_side_found)
      << "no honest replica ever voted a losing fork — attack ineffective";
}

TEST_F(EquivocationTest, NoConflictingCommitsAcrossViews) {
  // Despite every staged fork, all honest ledgers agree on the common
  // prefix and the cluster kept committing.
  const auto& ledger0 = cluster_->ledger(0);
  ASSERT_GT(ledger0.tip().value_or(0), 0u);
  for (ReplicaId id = 1; id < kN; ++id) {
    if (id == kByzantine) continue;
    const auto& ledger = cluster_->ledger(id);
    const Height common =
        std::min(ledger0.tip().value_or(0), ledger.tip().value_or(0));
    for (Height h = 1; h <= common; ++h) {
      ASSERT_EQ(ledger0.at(h).block_id, ledger.at(h).block_id)
          << "conflicting commit at height " << h << " on replica " << id;
    }
  }
}

}  // namespace
}  // namespace sftbft
