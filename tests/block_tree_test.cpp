// BlockTree: fork-aware chain structure — insertion, orphan adoption,
// ancestry/conflict queries, common ancestors, 3-chain detection.
#include <gtest/gtest.h>

#include "sftbft/chain/block_tree.hpp"

namespace sftbft::chain {
namespace {

using types::Block;

Block child_of(const Block& parent, Round round) {
  Block block;
  block.parent_id = parent.id;
  block.round = round;
  block.height = parent.height + 1;
  block.proposer = static_cast<ReplicaId>(round % 4);
  block.qc.block_id = parent.id;
  block.qc.round = parent.round;
  block.seal();
  return block;
}

class BlockTreeTest : public ::testing::Test {
 protected:
  BlockTree tree_;
  Block genesis_ = tree_.genesis();
};

TEST_F(BlockTreeTest, StartsWithGenesisOnly) {
  EXPECT_EQ(tree_.size(), 1u);
  EXPECT_TRUE(tree_.contains(genesis_.id));
}

TEST_F(BlockTreeTest, InsertChain) {
  const Block b1 = child_of(genesis_, 1);
  const Block b2 = child_of(b1, 2);
  EXPECT_EQ(tree_.insert(b1), BlockTree::InsertResult::Inserted);
  EXPECT_EQ(tree_.insert(b2), BlockTree::InsertResult::Inserted);
  EXPECT_EQ(tree_.insert(b1), BlockTree::InsertResult::Duplicate);
  EXPECT_EQ(tree_.size(), 3u);
}

TEST_F(BlockTreeTest, RejectsBadHeight) {
  Block bad = child_of(genesis_, 1);
  bad.height = 5;
  bad.seal();
  EXPECT_EQ(tree_.insert(bad), BlockTree::InsertResult::Rejected);
}

TEST_F(BlockTreeTest, RejectsNonIncreasingRound) {
  const Block b1 = child_of(genesis_, 1);
  tree_.insert(b1);
  Block bad = child_of(b1, 1);  // same round as parent
  EXPECT_EQ(tree_.insert(bad), BlockTree::InsertResult::Rejected);
}

TEST_F(BlockTreeTest, OrphanAdoptedWhenParentArrives) {
  const Block b1 = child_of(genesis_, 1);
  const Block b2 = child_of(b1, 2);
  const Block b3 = child_of(b2, 3);
  EXPECT_EQ(tree_.insert(b3), BlockTree::InsertResult::Orphaned);
  EXPECT_EQ(tree_.insert(b2), BlockTree::InsertResult::Orphaned);
  EXPECT_EQ(tree_.orphan_count(), 2u);
  EXPECT_EQ(tree_.insert(b1), BlockTree::InsertResult::Inserted);
  // b2 and b3 adopted transitively.
  EXPECT_TRUE(tree_.contains(b2.id));
  EXPECT_TRUE(tree_.contains(b3.id));
  EXPECT_EQ(tree_.orphan_count(), 0u);
}

TEST_F(BlockTreeTest, ExtendsAndConflicts) {
  const Block b1 = child_of(genesis_, 1);
  const Block b2 = child_of(b1, 2);
  const Block fork = child_of(b1, 3);  // sibling of b2
  tree_.insert(b1);
  tree_.insert(b2);
  tree_.insert(fork);

  EXPECT_TRUE(tree_.extends(b2.id, b1.id));
  EXPECT_TRUE(tree_.extends(b2.id, genesis_.id));
  EXPECT_TRUE(tree_.extends(b2.id, b2.id));  // reflexive
  EXPECT_FALSE(tree_.extends(b1.id, b2.id));
  EXPECT_FALSE(tree_.conflicts(b2.id, b1.id));
  EXPECT_TRUE(tree_.conflicts(b2.id, fork.id));
  EXPECT_TRUE(tree_.conflicts(fork.id, b2.id));
}

TEST_F(BlockTreeTest, CommonAncestor) {
  const Block b1 = child_of(genesis_, 1);
  const Block b2 = child_of(b1, 2);
  const Block b3 = child_of(b2, 3);
  const Block fork2 = child_of(b1, 4);
  const Block fork3 = child_of(fork2, 5);
  for (const Block* blk : {&b1, &b2, &b3, &fork2, &fork3}) tree_.insert(*blk);

  EXPECT_EQ(tree_.common_ancestor(b3.id, fork3.id).id, b1.id);
  EXPECT_EQ(tree_.common_ancestor(b3.id, b2.id).id, b2.id);
  EXPECT_EQ(tree_.common_ancestor(b3.id, b3.id).id, b3.id);
}

TEST_F(BlockTreeTest, Path) {
  const Block b1 = child_of(genesis_, 1);
  const Block b2 = child_of(b1, 2);
  const Block b3 = child_of(b2, 3);
  for (const Block* blk : {&b1, &b2, &b3}) tree_.insert(*blk);

  const auto path = tree_.path(b1.id, b3.id);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0]->id, b2.id);
  EXPECT_EQ(path[1]->id, b3.id);

  EXPECT_TRUE(tree_.path(b3.id, b1.id).empty());  // wrong direction
}

TEST_F(BlockTreeTest, ThreeChainDetection) {
  const Block b1 = child_of(genesis_, 1);
  const Block b2 = child_of(b1, 2);
  const Block b3 = child_of(b2, 3);
  for (const Block* blk : {&b1, &b2, &b3}) tree_.insert(*blk);

  const auto chain = tree_.three_chain_from(b1.id);
  ASSERT_TRUE(chain.has_value());
  EXPECT_EQ(chain->first->id, b2.id);
  EXPECT_EQ(chain->second->id, b3.id);
  EXPECT_FALSE(tree_.three_chain_from(b2.id).has_value());
}

TEST_F(BlockTreeTest, ThreeChainRequiresConsecutiveRounds) {
  const Block b1 = child_of(genesis_, 1);
  const Block b2 = child_of(b1, 2);
  const Block b4 = child_of(b2, 4);  // round gap
  for (const Block* blk : {&b1, &b2, &b4}) tree_.insert(*blk);
  EXPECT_FALSE(tree_.three_chain_from(b1.id).has_value());
}

TEST_F(BlockTreeTest, ChildrenTracksEquivocation) {
  const Block b1 = child_of(genesis_, 1);
  const Block c1 = child_of(b1, 2);
  Block c2 = child_of(b1, 2);
  c2.proposer = 3;  // different content, same round: equivocation
  c2.seal();
  tree_.insert(b1);
  tree_.insert(c1);
  tree_.insert(c2);
  EXPECT_EQ(tree_.children_of(b1.id).size(), 2u);

  // The non-allocating visit sees the same children in the same order.
  std::vector<const Block*> visited;
  tree_.for_each_child(b1.id, [&](const Block& c) { visited.push_back(&c); });
  EXPECT_EQ(visited, tree_.children_of(b1.id));
}

TEST_F(BlockTreeTest, QueriesOnUnknownIdsAreSafe) {
  types::BlockId unknown{};
  unknown.bytes[0] = 0xff;
  EXPECT_FALSE(tree_.contains(unknown));
  EXPECT_EQ(tree_.get(unknown), nullptr);
  EXPECT_FALSE(tree_.extends(unknown, genesis_.id));
  EXPECT_FALSE(tree_.conflicts(unknown, genesis_.id));
  EXPECT_TRUE(tree_.children_of(unknown).empty());
  int visits = 0;
  tree_.for_each_child(unknown, [&](const Block&) { ++visits; });
  EXPECT_EQ(visits, 0);
  EXPECT_FALSE(tree_.three_chain_from(unknown).has_value());
}

TEST_F(BlockTreeTest, ExtendsEachMatchesExtends) {
  //   g - b1 - b2 - b3 - b4
  //         \- f2 - f3
  //    \- h1
  const Block b1 = child_of(genesis_, 1);
  const Block b2 = child_of(b1, 2);
  const Block b3 = child_of(b2, 3);
  const Block b4 = child_of(b3, 4);
  const Block f2 = child_of(b1, 5);
  const Block f3 = child_of(f2, 6);
  const Block h1 = child_of(genesis_, 7);
  for (const Block* block : {&b1, &b2, &b3, &b4, &f2, &f3, &h1}) {
    tree_.insert(*block);
  }
  types::BlockId unknown{};
  unknown.bytes[0] = 0xff;
  // Any order, duplicates and unknown ids included.
  const std::vector<types::BlockId> ids{f3.id, b2.id, unknown, genesis_.id,
                                        b4.id, h1.id, b1.id, f2.id, b2.id};
  for (const types::BlockId& descendant :
       {b4.id, b3.id, f3.id, h1.id, genesis_.id, unknown}) {
    const std::vector<bool> each = tree_.extends_each(descendant, ids);
    ASSERT_EQ(each.size(), ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(each[i], tree_.extends(descendant, ids[i])) << i;
    }
  }
  EXPECT_TRUE(tree_.extends_each(b4.id, {}).empty());
}

}  // namespace
}  // namespace sftbft::chain
