// Voting-history bookkeeping for strong-votes (paper Fig. 4, Sec. 3.4 and
// Appendix D / Fig. 11).
//
// "For every fork in the blockchain, the replica additionally keeps the
// highest voted block on that fork." This class maintains exactly that — the
// *frontier* of voted blocks (voted blocks that are not ancestors of other
// voted blocks; one per fork) — and derives from it:
//
//  * marker(B)   = max{B'.round | B' in frontier, B' conflicts with B}
//                  (0 when the replica never voted on a conflicting fork);
//  * height_marker(B) = the same quantity over block *heights* — the
//    Fig. 11 strong-vote marker of SFT-Streamlet, which keys endorsement by
//    chain position instead of pacemaker round;
//  * intervals(B) = [lo, r] \ ∪_F D_F   with   D_F = [r_l + 1, r_h],
//    where r_h is the highest voted round on fork F and r_l the round of the
//    common ancestor of B and that fork's frontier block (Sec. 3.4). `lo` is
//    1 for full history or r − window for the windowed variant the paper
//    suggests ("the set of intervals for the last n rounds").
//
// Since the voting rules of every supported protocol only allow strictly
// increasing vote rounds, a newly voted block can never be an ancestor of a
// previously voted one, so frontier maintenance is: drop entries the new
// block extends, then append it.
//
// Cost. Dead forks stay in the frontier forever, and walking from a new tip
// down to each of them on every vote was the dominant host cost of long
// churny runs. Three exact shortcuts keep a vote at O(1) walks:
//
//  * Newest-first scan. Entries are appended in vote order, so scanning the
//    frontier from the back visits rounds in decreasing order. marker_for's
//    `entry.round > marker` guard is tested before the walk, so once one
//    conflicting entry sets the marker every older entry is skipped without
//    a walk: at most two walks (the own-fork entry, then the newest
//    conflicting one). The max is the same in any order; height_marker_for
//    scans the same way under its height guard.
//  * record_vote fast path. The last full pass left frontier_.back() (the
//    newest vote) extending none of the entries known to the tree then,
//    and records in `unknown_` the entries that were not. While every id
//    in `unknown_` is still absent from the tree, back() extends no other
//    entry (an absent block is no block's ancestor). A block B that
//    extends back() then extends exactly the entries back() extends — any
//    ancestor of B with a lower round than back() is an ancestor of
//    back() — i.e. back() alone. So B replaces back() in place, with no
//    walk to the dead forks; the result is the vector the full pass would
//    build. Once an unknown entry arrives it may be an ancestor of back(),
//    and the next vote takes the full pass. from_records forces one full
//    pass too (`restored_`): restored entries never went through one.
//    So a restarted replica whose restored fork blocks are never re-synced
//    still takes the fast path after its first vote.
//  * One walk per full pass. The full pass (a fork switch, or the flag is
//    down) answers "does the new vote extend this entry?" for every entry
//    with BlockTree::extends_each: one walk down to the lowest entry rather
//    than one walk per entry.
//
// Crash recovery (sftbft::storage): the frontier round-trips through
// to_records()/from_records(). Restored entries may reference blocks the
// rebuilt tree does not contain yet (they arrive via peer sync); until then
// such entries are treated *conservatively* — as conflicting with every
// prospective vote, at their recorded round/height — so a recovered
// replica's markers/intervals can only under-endorse, never over-endorse
// (safe for Theorem 1, at a temporary cost to strong-commit liveness that
// heals once sync completes and the next record_vote collapses the
// frontier). This conservative floor is what StreamletCore's old
// "unresolved frontier + marker floor" implemented by hand.
#pragma once

#include <vector>

#include "sftbft/chain/block_tree.hpp"
#include "sftbft/common/interval_set.hpp"
#include "sftbft/common/types.hpp"
#include "sftbft/types/block.hpp"

namespace sftbft::core {

class VoteHistory {
 public:
  explicit VoteHistory(const chain::BlockTree& tree) : tree_(&tree) {}

  /// Records a vote for `block` (already inserted into the tree).
  void record_vote(const types::Block& block);

  /// Fig. 4 marker for a prospective vote on `block`.
  [[nodiscard]] Round marker_for(const types::Block& block) const;

  /// Fig. 11 height marker for a prospective vote on `block`: the max height
  /// of any conflicting frontier block (restored entries whose blocks were
  /// never re-learned count at their recorded height — over-reporting a
  /// marker only withholds endorsement, which is safe).
  [[nodiscard]] Height height_marker_for(const types::Block& block) const;

  /// Sec. 3.4 endorsed intervals for a prospective vote on `block`.
  /// `window == 0` means full history ([1, r]); otherwise the last `window`
  /// rounds ([r − window, r], clipped at 1).
  [[nodiscard]] IntervalSet intervals_for(const types::Block& block,
                                          Round window) const;

  struct FrontierEntry {
    types::BlockId block_id{};
    Round round = 0;
    Height height = 0;

    friend bool operator==(const FrontierEntry&, const FrontierEntry&) = default;
  };

  [[nodiscard]] const std::vector<FrontierEntry>& frontier() const {
    return frontier_;
  }

  /// Durable export: the frontier as-is (one record per fork).
  [[nodiscard]] std::vector<FrontierEntry> to_records() const {
    return frontier_;
  }

  /// Rebuilds the frontier from persisted records without replaying votes.
  /// Records whose blocks are known to the tree are pruned against each
  /// other (ancestors of another record are dropped); records for unknown
  /// blocks are kept verbatim and treated conservatively (see file header).
  void from_records(std::vector<FrontierEntry> records);

 private:
  const chain::BlockTree* tree_;
  std::vector<FrontierEntry> frontier_;
  /// Frontier entries absent from the tree at the last full record_vote
  /// pass (the fast-path invariant; see file header).
  std::vector<types::BlockId> unknown_;
  /// from_records ran since the last full pass: the next vote takes one.
  bool restored_ = false;
};

}  // namespace sftbft::core
