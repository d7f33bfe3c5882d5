// SFT-Streamlet specifics (Appendix D.2/D.3): height-based markers,
// k-endorsement semantics, the strong commit rule on triples, and the
// Lemma 3 counting argument.
#include <gtest/gtest.h>

#include "sftbft/obs/observer.hpp"
#include "sftbft/streamlet/streamlet.hpp"

namespace sftbft::streamlet {
namespace {

/// Drives a StreamletCore directly (no network) with hand-crafted messages.
class SftStreamletUnit : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kN = 7;
  static constexpr std::uint32_t kF = 2;

  SftStreamletUnit()
      : registry_(std::make_shared<crypto::KeyRegistry>(kN, 3)),
        core_(make_config(), sched_, registry_, payloads_,
              StreamletCore::Hooks{}) {}

  static StreamletConfig make_config() {
    StreamletConfig config;
    config.id = 0;
    config.n = kN;
    config.sft = true;
    config.echo = false;
    config.verify_signatures = true;
    return config;
  }

  types::Block make_block(const types::Block& parent, Round round) {
    types::Block block;
    block.parent_id = parent.id;
    block.round = round;
    block.height = parent.height + 1;
    block.proposer = static_cast<ReplicaId>(round % kN);
    block.qc.block_id = parent.id;
    block.qc.round = parent.round;
    block.seal();
    return block;
  }

  void deliver_proposal(const types::Block& block) {
    SProposal proposal;
    proposal.block = block;
    proposal.sig =
        registry_->signer_for(block.proposer).sign(proposal.signing_bytes());
    core_.on_proposal(proposal);
  }

  void deliver_vote(const types::Block& block, ReplicaId voter,
                    Height marker) {
    SVote vote;
    vote.block_id = block.id;
    vote.round = block.round;
    vote.height = block.height;
    vote.voter = voter;
    vote.marker = marker;
    vote.sig = registry_->signer_for(voter).sign(vote.signing_bytes());
    core_.on_vote(vote);
  }

  /// Full quorum of `count` truthful (marker 0) votes.
  void certify(const types::Block& block, std::uint32_t count) {
    for (ReplicaId voter = 0; voter < count; ++voter) {
      deliver_vote(block, voter, 0);
    }
  }

  sim::Scheduler sched_;
  std::shared_ptr<crypto::KeyRegistry> registry_;
  mempool::Mempool pool_;
  core::Payloads payloads_{pool_};
  StreamletCore core_;
};

TEST_F(SftStreamletUnit, CertificationAtQuorum) {
  const types::Block b1 = make_block(core_.tree().genesis(), 1);
  deliver_proposal(b1);
  for (ReplicaId voter = 0; voter < 2 * kF; ++voter) {
    deliver_vote(b1, voter, 0);
  }
  EXPECT_FALSE(core_.is_certified(b1.id));  // 4 < 2f+1
  deliver_vote(b1, 2 * kF, 0);
  EXPECT_TRUE(core_.is_certified(b1.id));
  EXPECT_EQ(core_.longest_certified_tip().id, b1.id);
}

TEST_F(SftStreamletUnit, KEndorsementCountsRespectHeightMarkers) {
  const types::Block b1 = make_block(core_.tree().genesis(), 1);
  const types::Block b2 = make_block(b1, 2);
  deliver_proposal(b1);
  deliver_proposal(b2);
  // Voter 5 voted a conflicting height-1 block before: marker 1. Its vote
  // for b2 k-endorses b2 for k > 1, and b1 only for k > 1 as well — so for
  // k = 1 (committing b1) it does NOT count toward b1.
  deliver_vote(b2, 5, /*marker=*/1);
  EXPECT_EQ(core_.k_endorser_count(b2.id, /*k=*/2), 1u);
  EXPECT_EQ(core_.k_endorser_count(b1.id, /*k=*/1), 0u);
  EXPECT_EQ(core_.k_endorser_count(b1.id, /*k=*/2), 1u);
  // A direct vote always endorses its own block regardless of marker.
  deliver_vote(b1, 6, /*marker=*/3);
  EXPECT_EQ(core_.k_endorser_count(b1.id, /*k=*/1), 1u);
}

TEST_F(SftStreamletUnit, TripleCommitWithConsecutiveRounds) {
  const types::Block b1 = make_block(core_.tree().genesis(), 1);
  const types::Block b2 = make_block(b1, 2);
  const types::Block b3 = make_block(b2, 3);
  deliver_proposal(b1);
  deliver_proposal(b2);
  deliver_proposal(b3);
  certify(b1, kN);
  certify(b2, kN);
  EXPECT_FALSE(core_.ledger().is_committed(2));
  certify(b3, kN);
  // Triple (b1, b2, b3) with consecutive rounds commits the middle (b2) and
  // ancestors; all 7 voters endorse everything -> straight to 2f.
  EXPECT_TRUE(core_.ledger().is_committed(1));
  EXPECT_TRUE(core_.ledger().is_committed(2));
  EXPECT_EQ(core_.ledger().at(2).strength, 2 * kF);
  EXPECT_FALSE(core_.ledger().is_committed(3));  // tip of triple: not yet
}

TEST_F(SftStreamletUnit, NonConsecutiveRoundsDoNotCommit) {
  const types::Block b1 = make_block(core_.tree().genesis(), 1);
  const types::Block b2 = make_block(b1, 2);
  const types::Block b4 = make_block(b2, 4);  // gap
  deliver_proposal(b1);
  deliver_proposal(b2);
  deliver_proposal(b4);
  certify(b1, kN);
  certify(b2, kN);
  certify(b4, kN);
  EXPECT_FALSE(core_.ledger().is_committed(2));
}

TEST_F(SftStreamletUnit, StrengthLimitedByWeakestTripleMember) {
  const types::Block b1 = make_block(core_.tree().genesis(), 1);
  const types::Block b2 = make_block(b1, 2);
  const types::Block b3 = make_block(b2, 3);
  deliver_proposal(b1);
  deliver_proposal(b2);
  deliver_proposal(b3);
  certify(b1, kN);
  certify(b2, 2 * kF + 1);  // voters 0..4 only
  // b3's quorum: voters 0..4 clean, voters 5..6 with marker 2 (they voted a
  // conflicting height-2 block) — their votes do NOT 2-endorse b2.
  for (ReplicaId voter = 0; voter < 2 * kF + 1; ++voter) {
    deliver_vote(b3, voter, 0);
  }
  deliver_vote(b3, 5, /*marker=*/2);
  deliver_vote(b3, 6, /*marker=*/2);
  // Counts at k = 2: b1 = 7 (direct), b2 = 5, b3 = 7 -> min 5 -> x = f.
  ASSERT_TRUE(core_.ledger().is_committed(2));
  EXPECT_EQ(core_.ledger().at(2).strength, kF);
  // Direct votes for b2 itself always endorse it: strength ratchets to 2f.
  deliver_vote(b2, 5, /*marker=*/2);
  deliver_vote(b2, 6, /*marker=*/2);
  EXPECT_EQ(core_.k_endorser_count(b2.id, 2), kN);
  EXPECT_EQ(core_.ledger().at(2).strength, 2 * kF);
}

TEST_F(SftStreamletUnit, Lemma3MarkerExcludesConflictVoters) {
  // Lemma 3: voters of a conflicting height-k block (marker >= k) never
  // k-endorse. Build two height-2 siblings; voters of the fork then vote
  // down-chain with truthful marker 2 and must not count for k = 2.
  const types::Block b1 = make_block(core_.tree().genesis(), 1);
  const types::Block b2 = make_block(b1, 2);
  const types::Block fork2 = make_block(b1, 3);  // same height, round 3
  const types::Block b4 = make_block(b2, 4);
  deliver_proposal(b1);
  deliver_proposal(b2);
  deliver_proposal(fork2);
  deliver_proposal(b4);

  deliver_vote(b4, 5, /*marker=*/2);  // voted fork2 (height 2) earlier
  deliver_vote(b4, 6, /*marker=*/0);  // clean history
  // For k = 2 (committing the height-2 block) voter 5's marker (2) blocks
  // its endorsement of BOTH b2 and b1 — the k is the committed height, the
  // same for every block in the triple.
  EXPECT_EQ(core_.k_endorser_count(b2.id, /*k=*/2), 1u);  // only voter 6
  EXPECT_EQ(core_.k_endorser_count(b1.id, /*k=*/2), 1u);
  // For k = 3 (committing a height-3 block) the marker-2 vote counts again.
  EXPECT_EQ(core_.k_endorser_count(b1.id, /*k=*/3), 2u);
  EXPECT_EQ(core_.k_endorser_count(b2.id, /*k=*/3), 2u);
}

TEST_F(SftStreamletUnit, InvalidSignaturesIgnored) {
  const types::Block b1 = make_block(core_.tree().genesis(), 1);
  deliver_proposal(b1);
  SVote vote;
  vote.block_id = b1.id;
  vote.round = 1;
  vote.height = 1;
  vote.voter = 3;
  vote.marker = 0;
  vote.sig = registry_->signer_for(2).sign(vote.signing_bytes());  // wrong key
  core_.on_vote(vote);
  EXPECT_EQ(core_.k_endorser_count(b1.id, 1), 0u);
}

TEST_F(SftStreamletUnit, WrongLeaderProposalIgnored) {
  types::Block b1 = make_block(core_.tree().genesis(), 1);
  b1.proposer = 5;  // round 1's leader is 1 % 7 = 1
  b1.seal();
  SProposal proposal;
  proposal.block = b1;
  proposal.sig = registry_->signer_for(5).sign(proposal.signing_bytes());
  core_.on_proposal(proposal);
  EXPECT_FALSE(core_.tree().contains(b1.id));
}

TEST(StreamletDuplicateProposal, SecondDeliveryIsFree) {
  // Under echo every replica receives each proposal from the leader and
  // again from every peer. Only the first delivery may touch the tree, the
  // echo or the signature check; a duplicate returns before the id hash.
  constexpr std::uint32_t kN = 4;
  sim::Scheduler sched;
  const auto registry = std::make_shared<crypto::KeyRegistry>(kN, 3);
  mempool::Mempool pool;
  core::Payloads payloads{pool};
  obs::Observer observer(obs::ObsConfig{.enabled = true}, kN);
  StreamletConfig config;
  config.id = 0;
  config.n = kN;
  config.echo = true;
  config.verify_signatures = true;
  config.observer = &observer;
  std::size_t echoes = 0;
  StreamletCore::Hooks hooks;
  hooks.echo = [&echoes](const SMessage&) { ++echoes; };
  StreamletCore core(config, sched, registry, payloads, std::move(hooks));

  types::Block block;
  block.parent_id = core.tree().genesis_id();
  block.round = 1;
  block.height = 1;
  block.proposer = 1;
  block.qc.block_id = block.parent_id;
  block.seal();
  SProposal proposal;
  proposal.block = block;
  proposal.sig = registry->signer_for(1).sign(proposal.signing_bytes());

  const auto verifications = [&observer] {
    const obs::Registry& metrics = observer.registry(0);
    return metrics.counter(obs::Counter::kVoteVerifyHits) +
           metrics.counter(obs::Counter::kVoteVerifyMisses);
  };
  core.on_proposal(proposal);
  ASSERT_TRUE(core.tree().contains(block.id));
  const std::size_t tree_size = core.tree().size();
  EXPECT_EQ(echoes, 1u);
  EXPECT_EQ(verifications(), 1u);

  core.on_proposal(proposal);
  EXPECT_EQ(core.tree().size(), tree_size);
  EXPECT_EQ(core.tree().orphan_count(), 0u);
  EXPECT_EQ(echoes, 1u);
  EXPECT_EQ(verifications(), 1u);
}

}  // namespace
}  // namespace sftbft::streamlet
