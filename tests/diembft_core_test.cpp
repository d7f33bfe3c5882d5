// core::ChainedCore driven directly (no network): message-level validation,
// proposing, voting, QC formation, commit rules, stale-proposal handling —
// including the adversarial inputs a simulated honest network never sends.
#include <gtest/gtest.h>

#include "sftbft/consensus/diembft.hpp"

namespace sftbft::consensus {
namespace {

using types::Block;
using types::Proposal;
using types::QuorumCert;
using types::Vote;
using types::VoteMode;

constexpr std::uint32_t kN = 4;
constexpr std::uint32_t kF = 1;

struct Outbox {
  std::vector<std::pair<ReplicaId, Vote>> votes;
  std::vector<Proposal> proposals;
  std::vector<types::TimeoutMsg> timeouts;
  std::vector<std::tuple<types::BlockId, std::uint32_t, SimTime>> commits;
};

/// One core under test (replica `id`) with scripted peers.
class DiemBftCoreTest : public ::testing::Test {
 protected:
  DiemBftCoreTest() : registry_(std::make_shared<crypto::KeyRegistry>(kN, 2)) {
    core::CoreConfig config;
    config.id = 0;
    config.n = kN;
    config.mode = CoreMode::SftMarker;
    config.base_timeout = millis(1000);
    config.leader_processing = 0;
    config.max_batch = 5;
    core::ChainedCore::Hooks hooks;
    hooks.send_vote = [this](ReplicaId to, const Vote& vote) {
      outbox_.votes.emplace_back(to, vote);
    };
    hooks.broadcast_proposal = [this](const Proposal& proposal) {
      outbox_.proposals.push_back(proposal);
    };
    hooks.broadcast_timeout = [this](const types::TimeoutMsg& msg) {
      outbox_.timeouts.push_back(msg);
    };
    hooks.on_commit = [this](const Block& block, std::uint32_t strength,
                             SimTime now) {
      outbox_.commits.emplace_back(block.id, strength, now);
    };
    core_ = std::make_unique<core::ChainedCore>(config, sched_, registry_,
                                                payloads_, std::move(hooks));
    core_->start();
  }

  /// Builds a valid signed proposal from scripted peer `proposer`.
  Proposal make_proposal(const Block& parent, Round round,
                         const QuorumCert& parent_qc) {
    Block block;
    block.parent_id = parent.id;
    block.round = round;
    block.height = parent.height + 1;
    block.proposer = static_cast<ReplicaId>(round % kN);
    block.qc = parent_qc;
    block.created_at = sched_.now();
    block.seal();
    Proposal proposal;
    proposal.block = block;
    proposal.sig = registry_->signer_for(block.proposer)
                       .sign(proposal.signing_bytes());
    return proposal;
  }

  /// QC for a block voted by all peers (markers 0).
  QuorumCert make_qc(const Block& block) {
    QuorumCert qc;
    qc.block_id = block.id;
    qc.round = block.round;
    qc.parent_id = block.parent_id;
    qc.parent_round = block.qc.round;
    for (ReplicaId voter = 0; voter < kN; ++voter) {
      Vote vote;
      vote.block_id = block.id;
      vote.round = block.round;
      vote.voter = voter;
      vote.mode = VoteMode::Marker;
      vote.marker = 0;
      vote.sig = registry_->signer_for(voter).sign(vote.signing_bytes());
      qc.add_vote(vote);
    }
    qc.canonicalize();
    return qc;
  }

  QuorumCert genesis_qc() {
    QuorumCert qc;
    qc.block_id = core_->tree().genesis_id();
    return qc;
  }

  sim::Scheduler sched_;
  std::shared_ptr<crypto::KeyRegistry> registry_;
  mempool::Mempool pool_;
  core::Payloads payloads_{pool_};
  Outbox outbox_;
  std::unique_ptr<core::ChainedCore> core_;
};

TEST_F(DiemBftCoreTest, VotesForValidProposal) {
  const auto proposal =
      make_proposal(core_->tree().genesis(), 1, genesis_qc());
  core_->on_proposal(proposal);
  ASSERT_EQ(outbox_.votes.size(), 1u);
  EXPECT_EQ(outbox_.votes[0].first, 2u);  // leader of round 2
  EXPECT_EQ(outbox_.votes[0].second.block_id, proposal.block.id);
  EXPECT_EQ(outbox_.votes[0].second.mode, VoteMode::Marker);
  EXPECT_EQ(core_->current_round(), 1u);
}

TEST_F(DiemBftCoreTest, RejectsWrongLeader) {
  auto proposal = make_proposal(core_->tree().genesis(), 1, genesis_qc());
  proposal.block.proposer = 2;  // round 1's leader is 1
  proposal.block.seal();
  proposal.sig = registry_->signer_for(2).sign(proposal.signing_bytes());
  core_->on_proposal(proposal);
  EXPECT_TRUE(outbox_.votes.empty());
  EXPECT_FALSE(core_->tree().contains(proposal.block.id));
}

TEST_F(DiemBftCoreTest, RejectsBadSignature) {
  auto proposal = make_proposal(core_->tree().genesis(), 1, genesis_qc());
  proposal.sig = registry_->signer_for(2).sign(proposal.signing_bytes());
  core_->on_proposal(proposal);
  EXPECT_TRUE(outbox_.votes.empty());
}

TEST_F(DiemBftCoreTest, RejectsTamperedBlockId) {
  auto proposal = make_proposal(core_->tree().genesis(), 1, genesis_qc());
  proposal.block.payload.txns.push_back({.id = 1, .submitted_at = 0,
                                         .size_bytes = 1});
  // id no longer matches content; signature check also fails, but the id
  // check alone must reject.
  core_->on_proposal(proposal);
  EXPECT_TRUE(outbox_.votes.empty());
}

TEST_F(DiemBftCoreTest, NeverVotesTwicePerRound) {
  const auto proposal =
      make_proposal(core_->tree().genesis(), 1, genesis_qc());
  core_->on_proposal(proposal);
  // An equivocating leader sends a second round-1 block.
  auto second = make_proposal(core_->tree().genesis(), 1, genesis_qc());
  second.block.created_at += 1;
  second.block.seal();
  second.sig = registry_->signer_for(1).sign(second.signing_bytes());
  core_->on_proposal(second);
  EXPECT_EQ(outbox_.votes.size(), 1u);  // voted only once in round 1
  // Both blocks are tracked, though (fork awareness).
  EXPECT_TRUE(core_->tree().contains(proposal.block.id));
  EXPECT_TRUE(core_->tree().contains(second.block.id));
}

TEST_F(DiemBftCoreTest, DropsStaleRoundProposal) {
  // Advance to round 3 via a chain of proposals.
  const auto p1 = make_proposal(core_->tree().genesis(), 1, genesis_qc());
  core_->on_proposal(p1);
  const auto p2 = make_proposal(p1.block, 2, make_qc(p1.block));
  core_->on_proposal(p2);
  EXPECT_EQ(core_->current_round(), 2u);
  // A (different) round-1 proposal arrives now: stale, dropped entirely.
  auto stale = make_proposal(core_->tree().genesis(), 1, genesis_qc());
  stale.block.created_at += 99;
  stale.block.seal();
  stale.sig = registry_->signer_for(1).sign(stale.signing_bytes());
  core_->on_proposal(stale);
  EXPECT_FALSE(core_->tree().contains(stale.block.id));
}

TEST_F(DiemBftCoreTest, OrphanProposalBufferedUntilParent) {
  const auto p1 = make_proposal(core_->tree().genesis(), 1, genesis_qc());
  const auto p2 = make_proposal(p1.block, 2, make_qc(p1.block));
  core_->on_proposal(p2);  // parent unknown yet
  EXPECT_FALSE(core_->tree().contains(p2.block.id));
  core_->on_proposal(p1);  // parent arrives; p2 adopted and voted
  EXPECT_TRUE(core_->tree().contains(p2.block.id));
  EXPECT_EQ(outbox_.votes.size(), 2u);
}

TEST_F(DiemBftCoreTest, RegularCommitAtThreeChain) {
  // Chain rounds 1,2,3 then QC_3 via proposal 4: block 1 commits at f.
  const auto p1 = make_proposal(core_->tree().genesis(), 1, genesis_qc());
  core_->on_proposal(p1);
  const auto p2 = make_proposal(p1.block, 2, make_qc(p1.block));
  core_->on_proposal(p2);
  const auto p3 = make_proposal(p2.block, 3, make_qc(p2.block));
  core_->on_proposal(p3);
  EXPECT_TRUE(outbox_.commits.empty());
  const auto p4 = make_proposal(p3.block, 4, make_qc(p3.block));
  core_->on_proposal(p4);
  ASSERT_FALSE(outbox_.commits.empty());
  EXPECT_EQ(std::get<0>(outbox_.commits[0]), p1.block.id);
  EXPECT_GE(std::get<1>(outbox_.commits[0]), kF);
  EXPECT_TRUE(core_->ledger().is_committed(1));
}

TEST_F(DiemBftCoreTest, StrengthRisesWithMoreQcs) {
  const auto p1 = make_proposal(core_->tree().genesis(), 1, genesis_qc());
  core_->on_proposal(p1);
  const auto p2 = make_proposal(p1.block, 2, make_qc(p1.block));
  core_->on_proposal(p2);
  const auto p3 = make_proposal(p2.block, 3, make_qc(p2.block));
  core_->on_proposal(p3);
  const auto p4 = make_proposal(p3.block, 4, make_qc(p3.block));
  core_->on_proposal(p4);
  // Full-membership QCs (all 4 voters, markers 0): the 3-chain (1,2,3) has
  // n endorsers everywhere -> x = n - f - 1 = 2 = 2f immediately.
  EXPECT_EQ(core_->ledger().at(1).strength, 2 * kF);
}

TEST_F(DiemBftCoreTest, LeaderCollectsVotesAndProposes) {
  // Make replica 0 the collector: votes for a round-3 block (leader of
  // round 4 = 0). Build rounds 1..3 first.
  const auto p1 = make_proposal(core_->tree().genesis(), 1, genesis_qc());
  core_->on_proposal(p1);
  const auto p2 = make_proposal(p1.block, 2, make_qc(p1.block));
  core_->on_proposal(p2);
  const auto p3 = make_proposal(p2.block, 3, make_qc(p2.block));
  core_->on_proposal(p3);
  ASSERT_TRUE(outbox_.proposals.empty());

  // Deliver the peers' round-3 votes (our own was sent via hook; feed it
  // back like the network would).
  for (const auto& [to, vote] : outbox_.votes) {
    if (vote.round == 3) core_->on_vote(vote);
  }
  for (ReplicaId voter = 1; voter < kN; ++voter) {
    Vote vote;
    vote.block_id = p3.block.id;
    vote.round = 3;
    vote.voter = voter;
    vote.mode = VoteMode::Marker;
    vote.sig = registry_->signer_for(voter).sign(vote.signing_bytes());
    core_->on_vote(vote);
  }
  sched_.run_until_idle();  // leader_processing = 0 -> immediate propose
  ASSERT_EQ(outbox_.proposals.size(), 1u);
  const Proposal& mine = outbox_.proposals[0];
  EXPECT_EQ(mine.block.round, 4u);
  EXPECT_EQ(mine.block.parent_id, p3.block.id);
  EXPECT_GE(mine.block.qc.votes.size(), 2 * kF + 1);
  EXPECT_EQ(core_->current_round(), 4u);
}

TEST_F(DiemBftCoreTest, IgnoresVotesWhenNotCollector) {
  const auto p1 = make_proposal(core_->tree().genesis(), 1, genesis_qc());
  core_->on_proposal(p1);
  // Round-1 votes go to leader of round 2 (= replica 2), not to us.
  for (ReplicaId voter = 1; voter < kN; ++voter) {
    Vote vote;
    vote.block_id = p1.block.id;
    vote.round = 1;
    vote.voter = voter;
    vote.mode = VoteMode::Marker;
    vote.sig = registry_->signer_for(voter).sign(vote.signing_bytes());
    core_->on_vote(vote);
  }
  sched_.run_until_idle();
  EXPECT_TRUE(outbox_.proposals.empty());
}

TEST_F(DiemBftCoreTest, TimeoutBroadcastOnTimerExpiry) {
  sched_.run_for(millis(1100));  // round-1 timer (1000ms) fires
  ASSERT_EQ(outbox_.timeouts.size(), 1u);
  EXPECT_EQ(outbox_.timeouts[0].round, 1u);
  EXPECT_EQ(outbox_.timeouts[0].sender, 0u);
}

TEST_F(DiemBftCoreTest, TimeoutCertAdvancesRound) {
  for (ReplicaId sender = 1; sender < kN; ++sender) {
    types::TimeoutMsg msg;
    msg.round = 1;
    msg.sender = sender;
    msg.sig = registry_->signer_for(sender).sign(msg.signing_bytes());
    core_->on_timeout_msg(msg);
  }
  EXPECT_EQ(core_->current_round(), 2u);  // 3 = 2f+1 timeouts formed a TC
}

TEST_F(DiemBftCoreTest, TimeoutRoundsLeftWithoutTcAreDropped) {
  // One peer times out in every round while QCs keep advancing the rounds,
  // so no round ever gathers a TC: the rounds left behind must not pile up.
  Block parent = core_->tree().genesis();
  QuorumCert qc = genesis_qc();
  for (Round round = 1; round <= 30; ++round) {
    const auto proposal = make_proposal(parent, round, qc);
    core_->on_proposal(proposal);
    ASSERT_EQ(core_->current_round(), round);
    types::TimeoutMsg msg;
    msg.round = round;
    msg.sender = 3;
    msg.high_qc = qc;
    msg.sig = registry_->signer_for(3).sign(msg.signing_bytes());
    core_->on_timeout_msg(msg);
    EXPECT_LE(core_->pending_timeout_rounds(), 2u) << "round " << round;
    parent = proposal.block;
    qc = make_qc(proposal.block);
  }
}

TEST_F(DiemBftCoreTest, StopSilencesEverything) {
  core_->stop();
  const auto p1 = make_proposal(core_->tree().genesis(), 1, genesis_qc());
  core_->on_proposal(p1);
  sched_.run_for(millis(2000));
  EXPECT_TRUE(outbox_.votes.empty());
  EXPECT_TRUE(outbox_.timeouts.empty());
}

}  // namespace
}  // namespace sftbft::consensus
