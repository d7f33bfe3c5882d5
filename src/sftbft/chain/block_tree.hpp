// The block tree: every certified-or-proposed block a replica knows,
// organized by parent links (paper Sec. 2.1 "Block Chaining").
//
// Byzantine leaders can equivocate, so the structure is a tree rooted at
// genesis, not a list. The tree answers the queries the SFT layer needs
// constantly: ancestor/conflict tests, common ancestors (for interval
// computation, Sec. 3.4), and 3-chain detection (commit rules). Blocks whose
// parent has not arrived yet are buffered in an orphan pool and linked in
// when the parent shows up.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "sftbft/types/block.hpp"

namespace sftbft::chain {

using types::Block;
using types::BlockId;

class BlockTree {
 public:
  /// Creates a tree holding only `genesis_block` (round 0, height 0).
  explicit BlockTree(Block genesis_block = Block::genesis());

  /// Crash recovery: a tree rooted at an arbitrary *trusted* block (the
  /// persisted snapshot tip). Blocks below the root are pruned — their
  /// commits are final in the restored ledger and never revisited; blocks
  /// above it arrive via peer sync and chain off the root as usual.
  [[nodiscard]] static BlockTree rooted_at(Block root);

  enum class InsertResult {
    Inserted,   ///< linked into the tree
    Duplicate,  ///< already present (no-op)
    Orphaned,   ///< parent unknown; buffered until the parent arrives
    Rejected,   ///< structurally invalid (bad height/round vs parent)
  };

  /// Inserts a block. May recursively adopt buffered orphans.
  InsertResult insert(const Block& block);

  [[nodiscard]] bool contains(const BlockId& id) const;
  [[nodiscard]] const Block* get(const BlockId& id) const;
  /// The tree's root: the genesis block normally, the snapshot tip after a
  /// rooted_at() restore.
  [[nodiscard]] const Block& genesis() const { return nodes_.at(genesis_id_)->block; }
  [[nodiscard]] const BlockId& genesis_id() const { return genesis_id_; }

  /// Number of linked (non-orphan) blocks, including genesis.
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] std::size_t orphan_count() const;

  /// True iff `ancestor` is an ancestor of `descendant` or the same block.
  /// False if either id is unknown.
  [[nodiscard]] bool extends(const BlockId& descendant,
                             const BlockId& ancestor) const;

  /// extends(descendant, a) for each `a` in `ancestors`, from one walk down
  /// to the lowest of them instead of one walk each.
  [[nodiscard]] std::vector<bool> extends_each(
      const BlockId& descendant, std::span<const BlockId> ancestors) const;

  /// True iff both blocks are known and neither extends the other
  /// (paper Sec. 2.1: "conflicting").
  [[nodiscard]] bool conflicts(const BlockId& a, const BlockId& b) const;

  /// Deepest common ancestor of two known blocks (exists: genesis roots all).
  [[nodiscard]] const Block& common_ancestor(const BlockId& a,
                                             const BlockId& b) const;

  /// Parent block, or nullptr for genesis/unknown.
  [[nodiscard]] const Block* parent_of(const BlockId& id) const;

  /// Children of a block (possibly several under equivocation).
  [[nodiscard]] std::vector<const Block*> children_of(const BlockId& id) const;

  /// Calls `fn(const Block&)` on each child, in children_of() order,
  /// without building a vector (the strength tracker's per-QC path).
  template <typename Fn>
  void for_each_child(const BlockId& id, Fn&& fn) const {
    if (const Node* node = find(id)) {
      for (const Node* child : node->children) fn(child->block);
    }
  }

  /// Blocks on the path from (excluding) `ancestor` to (including)
  /// `descendant`, oldest first. Empty when not on one chain.
  [[nodiscard]] std::vector<const Block*> path(const BlockId& ancestor,
                                               const BlockId& descendant) const;

  /// DiemBFT 3-chain test: returns the two successors (B_{k+1}, B_{k+2}) if
  /// the tree holds a chain block -> c1 -> c2 with consecutive rounds
  /// starting at `id` (Fig. 2 commit rule). Otherwise nullopt.
  [[nodiscard]] std::optional<std::pair<const Block*, const Block*>>
  three_chain_from(const BlockId& id) const;

  /// All blocks, unordered (iteration helper for audits/tests).
  [[nodiscard]] std::vector<const Block*> all_blocks() const;

 private:
  struct Node {
    Block block;
    Node* parent = nullptr;  // null only for genesis
    std::vector<Node*> children;
  };

  [[nodiscard]] const Node* find(const BlockId& id) const;
  InsertResult link(const Block& block, Node* parent);
  void adopt_orphans_of(const BlockId& parent_id);

  BlockId genesis_id_;
  std::unordered_map<BlockId, std::unique_ptr<Node>> nodes_;
  /// parent id -> blocks waiting for that parent.
  std::unordered_map<BlockId, std::vector<Block>> orphans_;
};

}  // namespace sftbft::chain
