#include "sftbft/core/vote_history.hpp"

#include <algorithm>
#include <cassert>
#include <ranges>

namespace sftbft::core {

void VoteHistory::record_vote(const types::Block& block) {
  assert(tree_->contains(block.id));
  const FrontierEntry voted{block.id, block.round, block.height};
  const auto arrived = [&](const types::BlockId& id) {
    return tree_->contains(id);
  };
  if (!restored_ && !frontier_.empty() &&
      std::ranges::none_of(unknown_, arrived) &&
      tree_->extends(block.id, frontier_.back().block_id)) {
    // Fast path (see header): the newest entry is the only one on this fork.
    frontier_.back() = voted;
    return;
  }
  // Drop frontier entries on the same fork (ancestors of the new vote);
  // what remains are the highest voted blocks of *other* forks. One walk
  // down from the new vote answers every entry.
  std::vector<types::BlockId> ids;
  ids.reserve(frontier_.size());
  for (const FrontierEntry& entry : frontier_) ids.push_back(entry.block_id);
  const std::vector<bool> same_fork = tree_->extends_each(block.id, ids);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < frontier_.size(); ++i) {
    if (!same_fork[i]) frontier_[kept++] = frontier_[i];
  }
  frontier_.resize(kept);
  frontier_.push_back(voted);
  restored_ = false;
  unknown_.clear();
  for (const FrontierEntry& entry : frontier_) {
    if (!arrived(entry.block_id)) unknown_.push_back(entry.block_id);
  }
}

Round VoteHistory::marker_for(const types::Block& block) const {
  Round marker = 0;
  // Newest first: the guard then skips every older, lower-round entry
  // without a walk (see header).
  for (const FrontierEntry& entry : std::views::reverse(frontier_)) {
    // An entry conflicts with `block` iff `block` does not extend it (the
    // entry cannot extend `block`: its round is lower than any new vote's).
    // Unknown entries (restored, not yet re-synced) never satisfy extends()
    // and therefore count — the conservative floor.
    if (entry.round > marker && !tree_->extends(block.id, entry.block_id)) {
      marker = entry.round;
    }
  }
  return marker;
}

Height VoteHistory::height_marker_for(const types::Block& block) const {
  Height marker = 0;
  for (const FrontierEntry& entry : std::views::reverse(frontier_)) {
    if (entry.height > marker && !tree_->extends(block.id, entry.block_id)) {
      marker = entry.height;
    }
  }
  return marker;
}

IntervalSet VoteHistory::intervals_for(const types::Block& block,
                                       Round window) const {
  const Round r = block.round;
  const Round lo = (window == 0 || r <= window) ? 1 : r - window;
  IntervalSet endorsed = IntervalSet::single(lo, r);
  for (const FrontierEntry& entry : frontier_) {
    if (tree_->extends(block.id, entry.block_id)) continue;  // same fork
    if (!tree_->contains(entry.block_id)) {
      // Restored entry whose block has not been re-synced yet: the common
      // ancestor is unknowable, so assume the worst (genesis) and withhold
      // endorsement of everything up to the recorded round. Conservative —
      // heals once sync delivers the block.
      endorsed.subtract(1, entry.round);
      continue;
    }
    // D_F = [r_l + 1, r_h]: r_h = highest voted round on the fork, r_l =
    // round of the common ancestor of `block` and that frontier block.
    const types::Block& ancestor =
        tree_->common_ancestor(block.id, entry.block_id);
    endorsed.subtract(ancestor.round + 1, entry.round);
  }
  return endorsed;
}

void VoteHistory::from_records(std::vector<FrontierEntry> records) {
  frontier_.clear();
  restored_ = true;  // the next record_vote takes the full pass
  for (const FrontierEntry& record : records) {
    // Drop already-imported entries this record's block extends — the same
    // maintenance rule record_vote applies, so importing a frontier exported
    // from a live history reproduces it exactly. Unknown blocks never
    // satisfy extends() and are kept side by side (conservative).
    std::erase_if(frontier_, [&](const FrontierEntry& entry) {
      return tree_->extends(record.block_id, entry.block_id);
    });
    // ...and skip records that are ancestors of an already-imported entry
    // (records may arrive oldest-first from WAL replay).
    bool dominated = false;
    for (const FrontierEntry& entry : frontier_) {
      if (tree_->extends(entry.block_id, record.block_id)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) frontier_.push_back(record);
  }
}

}  // namespace sftbft::core
