// Chained-kernel safety rules (Fig. 2): the voting rule as a parameterized
// truth table (universal preconditions + the DiemBFT locking check),
// locking-rule updates, the HotStuff rule's divergence from DiemBFT's, and
// pacemaker interactions.
#include <gtest/gtest.h>

#include "sftbft/core/chained_core.hpp"
#include "sftbft/hotstuff/hotstuff.hpp"

namespace sftbft::core {
namespace {

types::Block proposal(Round round, Round parent_round) {
  types::Block block;
  block.round = round;
  block.height = 1;
  block.qc.round = parent_round;  // the QC certifies the parent
  return block;
}

types::QuorumCert qc(Round round, Round parent_round) {
  types::QuorumCert cert;
  cert.round = round;
  cert.parent_round = parent_round;
  return cert;
}

/// The full DiemBFT voting decision: universal SafetyRules preconditions
/// plus the Fig. 2 locking check (the kernel default rule).
bool diembft_vote(const SafetyRules& rules, const types::Block& block,
                  const chain::BlockTree& tree) {
  return rules.can_vote(block) && diembft_safe_to_vote(block, rules, tree);
}

// Truth table for Fig. 2's voting rule: vote iff round > r_vote AND
// parent.round >= r_lock (plus rounds strictly increase along the chain).
struct VoteCase {
  Round voted_round;
  Round locked_round;
  Round proposal_round;
  Round parent_round;
  bool expect_vote;
};

class VotingRule : public ::testing::TestWithParam<VoteCase> {};

TEST_P(VotingRule, TruthTable) {
  const VoteCase& c = GetParam();
  chain::BlockTree tree;
  SafetyRules rules;
  rules.record_vote(c.voted_round);
  rules.observe_qc(qc(/*round=*/c.locked_round + 1, c.locked_round));
  ASSERT_EQ(rules.locked_round(), c.locked_round);
  EXPECT_EQ(diembft_vote(rules, proposal(c.proposal_round, c.parent_round),
                         tree),
            c.expect_vote);
}

INSTANTIATE_TEST_SUITE_P(
    Table, VotingRule,
    ::testing::Values(
        // Fresh round, parent at lock: vote.
        VoteCase{.voted_round = 4, .locked_round = 3, .proposal_round = 5,
                 .parent_round = 4, .expect_vote = true},
        // Already voted this round: no double vote.
        VoteCase{.voted_round = 5, .locked_round = 3, .proposal_round = 5,
                 .parent_round = 4, .expect_vote = false},
        // Proposal from the past: never.
        VoteCase{.voted_round = 5, .locked_round = 3, .proposal_round = 4,
                 .parent_round = 3, .expect_vote = false},
        // Parent below the lock: refuse (the 2-chain lock protects commits).
        VoteCase{.voted_round = 4, .locked_round = 3, .proposal_round = 5,
                 .parent_round = 2, .expect_vote = false},
        // Parent exactly at the lock: allowed (>=, not >).
        VoteCase{.voted_round = 4, .locked_round = 3, .proposal_round = 5,
                 .parent_round = 3, .expect_vote = true},
        // Rounds must strictly increase along the chain.
        VoteCase{.voted_round = 0, .locked_round = 0, .proposal_round = 3,
                 .parent_round = 3, .expect_vote = false},
        // Jumping several rounds forward after timeouts is fine.
        VoteCase{.voted_round = 4, .locked_round = 2, .proposal_round = 9,
                 .parent_round = 2, .expect_vote = true},
        // Initial state: everything at 0, vote for round 1 on genesis.
        VoteCase{.voted_round = 0, .locked_round = 0, .proposal_round = 1,
                 .parent_round = 0, .expect_vote = true}));

TEST(SafetyRules, LockingRuleTakesParentRound) {
  SafetyRules rules;
  rules.observe_qc(qc(7, 6));
  EXPECT_EQ(rules.locked_round(), 6u);  // lock on parent of certified block
  rules.observe_qc(qc(5, 4));           // older QC cannot lower the lock
  EXPECT_EQ(rules.locked_round(), 6u);
}

TEST(SafetyRules, LockingRuleRemembersLockedBlock) {
  SafetyRules rules;
  types::QuorumCert cert = qc(7, 6);
  cert.parent_id.bytes[0] = 0x6b;
  rules.observe_qc(cert);
  EXPECT_EQ(rules.locked_block().bytes[0], 0x6b);
  // restore_locked_round cannot resurrect the block id (not durable).
  SafetyRules restored;
  restored.restore_locked_round(6);
  EXPECT_EQ(restored.locked_block(), types::BlockId{});
}

TEST(SafetyRules, HighQcTracksHighestRound) {
  SafetyRules rules;
  rules.observe_qc(qc(3, 2));
  rules.observe_qc(qc(9, 8));
  rules.observe_qc(qc(5, 4));
  EXPECT_EQ(rules.high_qc().round, 9u);
}

TEST(SafetyRules, RecordVoteMonotone) {
  SafetyRules rules;
  rules.record_vote(5);
  rules.record_vote(3);  // lower: ignored
  EXPECT_EQ(rules.voted_round(), 5u);
}

TEST(SafetyRules, ForbidVotesBelowRound) {
  chain::BlockTree tree;
  SafetyRules rules;
  rules.forbid_votes_below(10);  // entered round 10
  EXPECT_FALSE(diembft_vote(rules, proposal(9, 8), tree));
  EXPECT_TRUE(diembft_vote(rules, proposal(10, 9), tree));
  rules.forbid_votes_below(5);  // never lowers
  EXPECT_EQ(rules.voted_round(), 9u);
}

TEST(SafetyRules, InitHighQcSeedsGenesis) {
  SafetyRules rules;
  types::QuorumCert genesis;
  genesis.block_id.bytes[0] = 0x42;
  rules.init_high_qc(genesis);
  EXPECT_EQ(rules.high_qc().block_id.bytes[0], 0x42);
}

// --- HotStuff's rule vs DiemBFT's (the one slot where they differ) --------

types::Block tree_child(chain::BlockTree& tree, const types::Block& parent,
                        Round round) {
  types::Block block;
  block.parent_id = parent.id;
  block.round = round;
  block.height = parent.height + 1;
  block.qc.block_id = parent.id;
  block.qc.round = parent.round;
  block.seal();
  EXPECT_EQ(tree.insert(block), chain::BlockTree::InsertResult::Inserted);
  return block;
}

TEST(HotStuffRule, ExtendsLockedBranchBeatsRoundComparison) {
  // Build genesis -> a(r=1) -> b(r=2), plus a fork sibling s(r=3) off
  // genesis. Lock on block a (QC for b carries parent a, parent_round 1).
  chain::BlockTree tree;
  const types::Block genesis = tree.genesis();
  const types::Block a = tree_child(tree, genesis, 1);
  const types::Block b = tree_child(tree, a, 2);

  SafetyRules rules;
  types::QuorumCert lock_qc;
  lock_qc.block_id = b.id;
  lock_qc.round = b.round;
  lock_qc.parent_id = a.id;
  lock_qc.parent_round = a.round;
  rules.observe_qc(lock_qc);
  ASSERT_EQ(rules.locked_round(), 1u);
  ASSERT_EQ(rules.locked_block(), a.id);

  // A proposal extending b (on the locked branch) whose embedded QC round
  // equals the lock: both rules accept.
  types::Block on_branch;
  on_branch.parent_id = b.id;
  on_branch.round = 4;
  on_branch.height = 3;
  on_branch.qc.block_id = b.id;
  on_branch.qc.round = b.round;
  on_branch.seal();
  EXPECT_TRUE(hotstuff::safe_to_vote(on_branch, rules, tree));
  EXPECT_TRUE(diembft_safe_to_vote(on_branch, rules, tree));

  // A proposal extending the fork sibling with a stale (round-0) QC:
  // DiemBFT refuses (parent round below the lock); HotStuff's liveness
  // branch also refuses (QC does not outrank the lock) — but on the locked
  // branch itself a stale QC is still acceptable to HotStuff.
  const types::Block sibling = tree_child(tree, genesis, 3);
  types::Block off_branch;
  off_branch.parent_id = sibling.id;
  off_branch.round = 5;
  off_branch.height = 2;
  off_branch.qc.block_id = sibling.id;
  off_branch.qc.round = 1;  // does not outrank the lock
  off_branch.seal();
  EXPECT_FALSE(hotstuff::safe_to_vote(off_branch, rules, tree));

  types::Block stale_on_branch;
  stale_on_branch.parent_id = a.id;  // the locked block itself
  stale_on_branch.round = 6;
  stale_on_branch.height = 2;
  stale_on_branch.qc.block_id = a.id;
  stale_on_branch.qc.round = 0;  // below the lock round
  stale_on_branch.seal();
  EXPECT_TRUE(hotstuff::safe_to_vote(stale_on_branch, rules, tree));
  EXPECT_FALSE(diembft_safe_to_vote(stale_on_branch, rules, tree));

  // Off-branch but with a higher-ranked QC: HotStuff's liveness branch
  // accepts (the replica re-locks via that QC), DiemBFT accepts too (round
  // comparison) — the rules agree here.
  types::Block outranking;
  outranking.parent_id = sibling.id;
  outranking.round = 7;
  outranking.height = 2;
  outranking.qc.block_id = sibling.id;
  outranking.qc.round = 3;  // outranks lock round 1
  outranking.seal();
  EXPECT_TRUE(hotstuff::safe_to_vote(outranking, rules, tree));
}

}  // namespace
}  // namespace sftbft::core
