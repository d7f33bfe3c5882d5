#include "sftbft/core/strength.hpp"

#include <algorithm>

namespace sftbft::core {

using types::Block;
using types::BlockId;
using types::QuorumCert;
using types::Vote;

StrengthTracker::StrengthTracker(const chain::BlockTree& tree, std::uint32_t n,
                                 std::uint32_t f, CountingRule rule)
    : tree_(&tree), n_(n), f_(f), rule_(rule) {}

std::vector<StrengthUpdate> StrengthTracker::process_qc(const QuorumCert& qc) {
  std::vector<StrengthUpdate> updates;
  if (qc.is_genesis()) return updates;
  if (!seen_qcs_.insert(qc.digest()).second) return updates;  // idempotent

  std::vector<BlockId> touched;
  ingest_chain_votes(qc.block_id, qc.round, qc.votes, touched);
  reevaluate_touched(touched, updates);
  return updates;
}

std::vector<StrengthUpdate> StrengthTracker::process_extra_vote(
    const Vote& vote) {
  std::vector<StrengthUpdate> updates;
  std::vector<BlockId> touched;
  const types::QcVote single{vote.voter, vote.meta()};
  ingest_chain_votes(vote.block_id, vote.round, {&single, 1}, touched);
  reevaluate_touched(touched, updates);
  return updates;
}

StrengthTracker::Record& StrengthTracker::record(const BlockId& id) {
  auto [it, fresh] = records_.try_emplace(id);
  if (fresh) {
    it->second.base = slots_.size();
    slots_.resize(slots_.size() + n_, kUnrecorded);
  }
  return it->second;
}

const StrengthTracker::Record* StrengthTracker::find_record(
    const BlockId& id) const {
  auto it = records_.find(id);
  return it == records_.end() ? nullptr : &it->second;
}

void StrengthTracker::set_slot(Record& rec, ReplicaId voter,
                               std::uint64_t marker) {
  std::uint64_t& slot = slots_[rec.base + voter];
  if (slot == kUnrecorded) ++rec.count;
  slot = marker;
}

void StrengthTracker::ingest_chain_votes(const BlockId& block_id,
                                         Round voted_round,
                                         std::span<const types::QcVote> votes,
                                         std::vector<BlockId>& touched) {
  const Block* block = tree_->get(block_id);
  // QCs are processed after their certified block is linked into the tree;
  // an unknown block here means the caller violated that ordering, and the
  // votes are conservatively ignored (under-counting never harms safety).
  if (block == nullptr) return;

  // Direct endorsement of the voted block itself (marker 0: endorses every
  // threshold). Every in-range voter then walks the ancestors.
  active_.clear();
  Record& own = record(block->id);
  const std::uint32_t own_before = own.count;
  for (std::uint32_t i = 0; i < votes.size(); ++i) {
    // Only a QC that fails verification names a replica id >= n; ignored
    // like an unknown block.
    if (votes[i].voter >= n_) continue;
    set_slot(own, votes[i].voter, 0);
    active_.push_back(i);
  }
  if (own.count != own_before) touched.push_back(block->id);

  // Indirect endorsements down the ancestor chain, one level at a time for
  // all voters still walking; within a level votes run in QC order, and a
  // voter's walk only reads and writes its own slots, so this is exactly
  // one walk per vote. Round-domain records are made only when the vote
  // endorses the ancestor at its own round, so the recorded marker is what
  // the vote carried (markers), or 0 (intervals / the naive strawman, whose
  // endorsement is threshold-independent).
  for (const Block* ancestor = tree_->parent_of(block->id);
       ancestor != nullptr && ancestor->height > 0 && !active_.empty();
       ancestor = tree_->parent_of(ancestor->id)) {
    Record* rec = nullptr;  // created on the first endorsement
    bool grew = false;
    std::size_t kept = 0;
    for (const std::uint32_t i : active_) {
      const types::QcVote& vote = votes[i];
      const types::VoteMeta& meta = vote.meta;
      bool endorses = false;
      switch (rule_) {
        case CountingRule::NaiveAllIndirect:
          endorses = true;  // Appendix C strawman — provably unsafe
          break;
        case CountingRule::Sft:
          endorses = meta.endorses(voted_round, ancestor->round);
          break;
      }
      if (endorses) {
        if (rec == nullptr) rec = &record(ancestor->id);
        std::uint64_t& slot = slots_[rec->base + vote.voter];
        if (slot != kUnrecorded) {
          // The voter already endorsed this ancestor through an earlier
          // vote. A voter's endorsement power only shrinks over time
          // (markers grow, intervals narrow), so that earlier — at least as
          // permissive — vote already covered everything reachable below
          // here. Stopping keeps the walk O(new blocks) amortized: the
          // paper's "marginal bookkeeping overhead" (Sec. 3.2).
          continue;
        }
        slot = (rule_ == CountingRule::Sft &&
                meta.mode == types::VoteMode::Marker)
                   ? meta.marker
                   : 0;
        ++rec->count;
        grew = true;
        active_[kept++] = i;
        continue;
      }
      // Marker mode: rounds strictly decrease toward genesis, so once
      // ancestor.round <= marker every deeper ancestor fails too.
      if (meta.mode == types::VoteMode::Marker) continue;
      // Interval mode: gaps are possible, but nothing below the smallest
      // endorsed round can match.
      if (meta.mode == types::VoteMode::Intervals &&
          (meta.endorsed.empty() || ancestor->round < meta.endorsed.min())) {
        continue;
      }
      if (meta.mode == types::VoteMode::Plain) continue;  // no indirect power
      active_[kept++] = i;
    }
    active_.resize(kept);
    if (grew) touched.push_back(ancestor->id);
  }
}

void StrengthTracker::ingest_height_vote(const BlockId& block_id,
                                         ReplicaId voter, Height marker) {
  const Block* block = tree_->get(block_id);
  if (block == nullptr) return;
  // An id >= n only comes from an unverifiable vote; ignored like an
  // unknown block.
  if (voter >= n_) return;
  // Appendix-C strawman: count every indirect vote as if it carried no
  // history (marker 0 endorses every ancestor height).
  const Height effective =
      rule_ == CountingRule::NaiveAllIndirect ? 0 : marker;
  // Direct votes always endorse their own block (the B = B' case).
  set_slot(record(block->id), voter, 0);

  for (const Block* ancestor = tree_->parent_of(block->id);
       ancestor != nullptr && ancestor->height > 0;
       ancestor = tree_->parent_of(ancestor->id)) {
    Record& rec = record(ancestor->id);
    const std::uint64_t recorded = slots_[rec.base + voter];
    if (recorded != kUnrecorded && recorded <= effective) {
      break;  // older vote was as permissive
    }
    set_slot(rec, voter, effective);
  }
}

void StrengthTracker::reevaluate_touched(std::vector<BlockId>& touched,
                                         std::vector<StrengthUpdate>& updates) {
  // Deduplicate before re-evaluating (votes often touch the same ancestors).
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const BlockId& id : touched) {
    reevaluate(id, updates);
  }
}

void StrengthTracker::reevaluate(const BlockId& id,
                                 std::vector<StrengthUpdate>& updates) {
  // A count change at `id` can complete 3-chains headed at `id`, its parent,
  // or its grandparent.
  const Block* block = tree_->get(id);
  if (block == nullptr) return;
  evaluate_head(*block, updates);
  if (const Block* parent = tree_->parent_of(id)) {
    if (parent->height > 0) evaluate_head(*parent, updates);
    if (const Block* grandparent = tree_->parent_of(parent->id)) {
      if (grandparent->height > 0) evaluate_head(*grandparent, updates);
    }
  }
}

void StrengthTracker::evaluate_head(const Block& head,
                                    std::vector<StrengthUpdate>& updates) {
  const auto it = records_.find(head.id);
  if (it == records_.end()) return;
  Record& rec = it->second;
  // Below 2f+1 endorsers the head cannot reach even x = f; at x = 2f its
  // level cannot rise.
  if (rec.count < 2 * f_ + 1 || rec.head_strength >= 2 * f_) return;
  const std::uint32_t count_head = rec.count;

  // Enumerate chains head -> c1 -> c2 with consecutive rounds; equivocation
  // can create several, so take the best.
  std::uint32_t best_min = 0;
  tree_->for_each_child(head.id, [&](const Block& c1) {
    if (c1.round != head.round + 1) return;
    const std::uint32_t count1 = endorser_count(c1.id);
    tree_->for_each_child(c1.id, [&](const Block& c2) {
      if (c2.round != c1.round + 1) return;
      const std::uint32_t count2 = endorser_count(c2.id);
      best_min = std::max(best_min, std::min({count_head, count1, count2}));
    });
  });
  if (best_min < f_ + 1) return;
  const std::uint32_t x = std::min(best_min - f_ - 1, 2 * f_);
  if (x < f_) return;  // strong commit rules start at the regular level

  if (x > rec.head_strength) {
    rec.head_strength = x;
    updates.push_back({head.id, head.round, x});
  }
}

std::uint32_t StrengthTracker::endorser_count(const BlockId& id,
                                              std::uint64_t threshold) const {
  const Record* rec = find_record(id);
  if (rec == nullptr) return 0;
  const std::uint64_t* slots = slots_.data() + rec->base;
  std::uint32_t count = 0;
  for (std::uint32_t voter = 0; voter < n_; ++voter) {
    count += slots[voter] < threshold;  // kUnrecorded is never below
  }
  return count;
}

std::uint32_t StrengthTracker::endorser_count(const BlockId& id) const {
  // Round-domain records are made only when the vote endorses the block at
  // its own round (marker < round by construction, direct votes at 0), so
  // the recorded-voter count IS the endorser count — O(1), the per-QC hot
  // path (evaluate_head touches up to three blocks per ingested QC).
  const Record* rec = find_record(id);
  return rec == nullptr ? 0 : rec->count;
}

std::vector<ReplicaId> StrengthTracker::endorsers(
    const BlockId& id, std::uint64_t threshold) const {
  std::vector<ReplicaId> out;
  if (const Record* rec = find_record(id)) {
    const std::uint64_t* slots = slots_.data() + rec->base;
    for (ReplicaId voter = 0; voter < n_; ++voter) {
      if (slots[voter] < threshold) out.push_back(voter);
    }
  }
  return out;
}

std::vector<ReplicaId> StrengthTracker::endorsers(const BlockId& id) const {
  const Block* block = tree_->get(id);
  if (block == nullptr) return {};
  return endorsers(id, block->round);
}

std::uint32_t StrengthTracker::head_strength(const BlockId& id) const {
  const Record* rec = find_record(id);
  return rec == nullptr ? 0 : rec->head_strength;
}

std::uint32_t StrengthTracker::effective_strength(const BlockId& id) const {
  // Max head strength over the block itself and every descendant, found by
  // DFS over children. Used for light-client log validation, where chains
  // are short-lived frontiers; fine for simulation scale.
  std::uint32_t best = head_strength(id);
  tree_->for_each_child(id, [&](const Block& child) {
    best = std::max(best, effective_strength(child.id));
  });
  return best;
}

std::optional<std::uint32_t> streamlet_triple_strength(
    const chain::BlockTree& tree, const StrengthTracker& tracker,
    const Block& middle,
    const std::function<bool(const types::BlockId&)>& certified,
    std::uint32_t n, std::uint32_t f, bool sft) {
  if (middle.height == 0) return std::nullopt;
  const Block* parent = tree.parent_of(middle.id);
  if (parent == nullptr) return std::nullopt;
  if (parent->round + 1 != middle.round) return std::nullopt;
  if (!certified(middle.id)) return std::nullopt;
  if (parent->height > 0 && !certified(parent->id)) return std::nullopt;

  std::optional<std::uint32_t> best;
  for (const Block* child : tree.children_of(middle.id)) {
    if (child->round != middle.round + 1) continue;
    if (!certified(child->id)) continue;

    // Plain Streamlet commit (strength f — 0 at n <= 3, still a commit).
    std::uint32_t strength = f;
    if (sft) {
      // Strong commit rule (Fig. 11): x + f + 1 k-endorsers on all three
      // blocks, with k the height of the committed (middle) block. Genesis
      // as parent is endorsed by everyone by definition.
      const Height k = middle.height;
      const std::uint32_t count =
          std::min({parent->height == 0 ? n
                                        : tracker.endorser_count(parent->id, k),
                    tracker.endorser_count(middle.id, k),
                    tracker.endorser_count(child->id, k)});
      if (count >= f + 1) {
        strength = std::max(strength, std::min(count - f - 1, 2 * f));
      }
    }
    best = std::max(best.value_or(0), strength);
  }
  return best;
}

}  // namespace sftbft::core
