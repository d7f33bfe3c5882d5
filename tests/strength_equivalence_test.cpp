// StrengthTracker's dense per-block slots and one-walk-per-QC ingestion
// against a verbatim copy of the nested-map tracker they replaced: seeded
// random block trees (forks, equivocating siblings, round gaps) fed random
// strong-QCs (Marker, Intervals and Plain votes, duplicate and overlapping
// voter sets, repeats), extra votes, votes for unknown blocks and
// height-domain votes, under both counting rules. After every step every
// query and every returned update vector must match exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sftbft/common/rng.hpp"
#include "sftbft/core/strength.hpp"

namespace sftbft::core {
namespace {

using types::Block;
using types::BlockId;
using types::QuorumCert;
using types::Vote;
using types::VoteMode;

// ---------------------------------------------------------------------------
// Reference: the nested-map StrengthTracker (per-vote walks, one
// unordered_map<ReplicaId, marker> per block), kept verbatim.

class NestedMapTracker {
 public:
  NestedMapTracker(const chain::BlockTree& tree, std::uint32_t n,
                   std::uint32_t f, CountingRule rule = CountingRule::Sft)
      : tree_(&tree), n_(n), f_(f), rule_(rule) {}

  std::vector<StrengthUpdate> process_qc(const types::QuorumCert& qc);
  std::vector<StrengthUpdate> process_extra_vote(const types::Vote& vote);
  [[nodiscard]] std::uint32_t head_strength(const types::BlockId& id) const;
  [[nodiscard]] std::uint32_t effective_strength(const types::BlockId& id) const;
  void ingest_height_vote(const types::BlockId& block_id, ReplicaId voter,
                          Height marker);
  [[nodiscard]] std::uint32_t endorser_count(const types::BlockId& id,
                                             std::uint64_t threshold) const;
  [[nodiscard]] std::uint32_t endorser_count(const types::BlockId& id) const;
  [[nodiscard]] std::vector<ReplicaId> endorsers(const types::BlockId& id,
                                                 std::uint64_t threshold) const;
  [[nodiscard]] std::vector<ReplicaId> endorsers(const types::BlockId& id) const;

 private:
  void ingest_chain_vote(const types::BlockId& block_id, Round voted_round,
                         ReplicaId voter, const types::VoteMeta& meta,
                         std::vector<types::BlockId>& touched);
  void reevaluate(const types::BlockId& id,
                  std::vector<StrengthUpdate>& updates);
  void evaluate_head(const types::Block& head,
                     std::vector<StrengthUpdate>& updates);

  const chain::BlockTree* tree_;
  [[maybe_unused]] std::uint32_t n_;
  std::uint32_t f_;
  CountingRule rule_;

  std::unordered_map<types::BlockId,
                     std::unordered_map<ReplicaId, std::uint64_t>>
      min_marker_;
  std::unordered_map<types::BlockId, std::uint32_t> head_strength_;
  std::unordered_set<crypto::Sha256Digest> seen_qcs_;
};

std::vector<StrengthUpdate> NestedMapTracker::process_qc(const QuorumCert& qc) {
  std::vector<StrengthUpdate> updates;
  if (qc.is_genesis()) return updates;
  if (!seen_qcs_.insert(qc.digest()).second) return updates;  // idempotent

  std::vector<BlockId> touched;
  for (const types::QcVote& vote : qc.votes) {
    ingest_chain_vote(qc.block_id, qc.round, vote.voter, vote.meta, touched);
  }

  // Deduplicate before re-evaluating (votes often touch the same ancestors).
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const BlockId& id : touched) {
    reevaluate(id, updates);
  }
  return updates;
}

std::vector<StrengthUpdate> NestedMapTracker::process_extra_vote(
    const Vote& vote) {
  std::vector<StrengthUpdate> updates;
  std::vector<BlockId> touched;
  ingest_chain_vote(vote.block_id, vote.round, vote.voter, vote.meta(),
                    touched);
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const BlockId& id : touched) {
    reevaluate(id, updates);
  }
  return updates;
}

void NestedMapTracker::ingest_chain_vote(const BlockId& block_id,
                                        Round voted_round, ReplicaId voter,
                                        const types::VoteMeta& meta,
                                        std::vector<BlockId>& touched) {
  const Block* block = tree_->get(block_id);
  // QCs are processed after their certified block is linked into the tree;
  // an unknown block here means the caller violated that ordering, and the
  // vote is conservatively ignored (under-counting never harms safety).
  if (block == nullptr) return;

  // Direct endorsement of the voted block itself (marker 0: endorses every
  // threshold).
  auto& own = min_marker_[block->id];
  auto [own_it, own_fresh] = own.try_emplace(voter, 0);
  if (!own_fresh) {
    own_it->second = 0;
  } else {
    touched.push_back(block->id);
  }

  // Indirect endorsements down the ancestor chain. Round-domain records are
  // made only when the vote endorses the ancestor at its own round, so the
  // recorded marker is what the vote carried (markers), or 0 (intervals /
  // the naive strawman, whose endorsement is threshold-independent).
  for (const Block* ancestor = tree_->parent_of(block->id);
       ancestor != nullptr && ancestor->height > 0;
       ancestor = tree_->parent_of(ancestor->id)) {
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
      const std::uint64_t marker =
          (rule_ == CountingRule::Sft && meta.mode == types::VoteMode::Marker)
              ? meta.marker
              : 0;
      auto& markers = min_marker_[ancestor->id];
      if (!markers.try_emplace(voter, marker).second) {
        // The voter already endorsed this ancestor through an earlier vote.
        // A voter's endorsement power only shrinks over time (markers grow,
        // intervals narrow), so that earlier — at least as permissive —
        // vote already covered everything reachable below here. Stopping
        // keeps the walk O(new blocks) amortized: the paper's "marginal
        // bookkeeping overhead" (Sec. 3.2).
        break;
      }
      touched.push_back(ancestor->id);
      continue;
    }
    // Marker mode: rounds strictly decrease toward genesis, so once
    // ancestor.round <= marker every deeper ancestor fails too.
    if (meta.mode == types::VoteMode::Marker) break;
    // Interval mode: gaps are possible, but nothing below the smallest
    // endorsed round can match.
    if (meta.mode == types::VoteMode::Intervals &&
        (meta.endorsed.empty() || ancestor->round < meta.endorsed.min())) {
      break;
    }
    if (meta.mode == types::VoteMode::Plain) break;  // no indirect power
  }
}

void NestedMapTracker::ingest_height_vote(const BlockId& block_id,
                                         ReplicaId voter, Height marker) {
  const Block* block = tree_->get(block_id);
  if (block == nullptr) return;
  // Appendix-C strawman: count every indirect vote as if it carried no
  // history (marker 0 endorses every ancestor height).
  const Height effective =
      rule_ == CountingRule::NaiveAllIndirect ? 0 : marker;
  // Direct votes always endorse their own block (the B = B' case).
  auto& own = min_marker_[block->id];
  auto [it, inserted] = own.try_emplace(voter, 0);
  if (!inserted) it->second = 0;

  for (const Block* ancestor = tree_->parent_of(block->id);
       ancestor != nullptr && ancestor->height > 0;
       ancestor = tree_->parent_of(ancestor->id)) {
    auto& markers = min_marker_[ancestor->id];
    auto [mit, fresh] = markers.try_emplace(voter, effective);
    if (!fresh) {
      if (mit->second <= effective) break;  // older vote was as permissive
      mit->second = effective;
    }
  }
}

void NestedMapTracker::reevaluate(const BlockId& id,
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

void NestedMapTracker::evaluate_head(const Block& head,
                                    std::vector<StrengthUpdate>& updates) {
  const std::uint32_t count_head = endorser_count(head.id);
  if (count_head < 2 * f_ + 1) return;  // cannot reach even x = f

  // Enumerate chains head -> c1 -> c2 with consecutive rounds; equivocation
  // can create several, so take the best.
  std::uint32_t best_min = 0;
  for (const Block* c1 : tree_->children_of(head.id)) {
    if (c1->round != head.round + 1) continue;
    const std::uint32_t count1 = endorser_count(c1->id);
    for (const Block* c2 : tree_->children_of(c1->id)) {
      if (c2->round != c1->round + 1) continue;
      const std::uint32_t count2 = endorser_count(c2->id);
      best_min = std::max(best_min, std::min({count_head, count1, count2}));
    }
  }
  if (best_min < f_ + 1) return;
  const std::uint32_t x = std::min(best_min - f_ - 1, 2 * f_);
  if (x < f_) return;  // strong commit rules start at the regular level

  std::uint32_t& recorded = head_strength_[head.id];
  if (x > recorded) {
    recorded = x;
    updates.push_back({head.id, head.round, x});
  }
}

std::uint32_t NestedMapTracker::endorser_count(const BlockId& id,
                                              std::uint64_t threshold) const {
  auto it = min_marker_.find(id);
  if (it == min_marker_.end()) return 0;
  std::uint32_t count = 0;
  for (const auto& [voter, marker] : it->second) {
    if (marker < threshold) ++count;
  }
  return count;
}

std::uint32_t NestedMapTracker::endorser_count(const BlockId& id) const {
  // Round-domain records are made only when the vote endorses the block at
  // its own round (marker < round by construction, direct votes at 0), so
  // the recorded-voter count IS the endorser count — O(1), the per-QC hot
  // path (evaluate_head touches up to three blocks per ingested vote).
  auto it = min_marker_.find(id);
  return it == min_marker_.end() ? 0
                                 : static_cast<std::uint32_t>(it->second.size());
}

std::vector<ReplicaId> NestedMapTracker::endorsers(
    const BlockId& id, std::uint64_t threshold) const {
  std::vector<ReplicaId> out;
  auto it = min_marker_.find(id);
  if (it != min_marker_.end()) {
    for (const auto& [voter, marker] : it->second) {
      if (marker < threshold) out.push_back(voter);
    }
    std::sort(out.begin(), out.end());
  }
  return out;
}

std::vector<ReplicaId> NestedMapTracker::endorsers(const BlockId& id) const {
  const Block* block = tree_->get(id);
  if (block == nullptr) return {};
  return endorsers(id, block->round);
}

std::uint32_t NestedMapTracker::head_strength(const BlockId& id) const {
  auto it = head_strength_.find(id);
  return it == head_strength_.end() ? 0 : it->second;
}

std::uint32_t NestedMapTracker::effective_strength(const BlockId& id) const {
  // Max head strength over the block itself and every descendant, found by
  // DFS over children. Used for light-client log validation, where chains
  // are short-lived frontiers; fine for simulation scale.
  std::uint32_t best = head_strength(id);
  for (const Block* child : tree_->children_of(id)) {
    best = std::max(best, effective_strength(child->id));
  }
  return best;
}


// ---------------------------------------------------------------------------
// Random driver

struct Config {
  std::uint32_t n;
  std::uint32_t f;
  CountingRule rule;
  std::uint64_t seed;
};

class Harness {
 public:
  explicit Harness(const Config& cfg)
      : cfg_(cfg),
        rng_(cfg.seed),
        dense_(tree_, cfg.n, cfg.f, cfg.rule),
        reference_(tree_, cfg.n, cfg.f, cfg.rule) {
    blocks_.push_back(tree_.genesis());
  }

  /// Adds a random block: mostly extending a recent block, sometimes an old
  /// one (a fork), sometimes an equivocating twin at an existing round.
  void grow() {
    const std::size_t recent = std::min<std::size_t>(blocks_.size(), 4);
    const Block& parent =
        rng_.chance(0.8)
            ? blocks_[blocks_.size() - 1 -
                      static_cast<std::size_t>(rng_.uniform(0, recent - 1))]
            : blocks_[pick(blocks_.size())];
    Block block;
    block.parent_id = parent.id;
    block.round = parent.round + 1 + (rng_.chance(0.2) ? rng_.uniform(1, 2) : 0);
    block.height = parent.height + 1;
    block.proposer = static_cast<ReplicaId>(rng_.uniform(0, cfg_.n - 1));
    block.qc.block_id = parent.id;
    block.qc.round = parent.round;
    block.seal();
    if (tree_.insert(block) == chain::BlockTree::InsertResult::Inserted) {
      blocks_.push_back(block);
    }
  }

  /// One ingestion step of the chosen domain, then a full comparison.
  void step(bool height_domain) {
    if (rng_.chance(0.3)) grow();
    if (height_domain) {
      const Block target = vote_target();
      const auto voter = static_cast<ReplicaId>(rng_.uniform(0, cfg_.n - 1));
      const auto marker = static_cast<Height>(
          rng_.uniform(0, static_cast<std::int64_t>(target.height) + 1));
      dense_.ingest_height_vote(target.id, voter, marker);
      reference_.ingest_height_vote(target.id, voter, marker);
    } else if (rng_.chance(0.15)) {
      const Block target = vote_target();
      const Vote vote = random_vote(target);
      ASSERT_EQ(dense_.process_extra_vote(vote),
                reference_.process_extra_vote(vote));
    } else {
      const QuorumCert qc = random_qc();
      ASSERT_EQ(dense_.process_qc(qc), reference_.process_qc(qc));
      if (rng_.chance(0.1)) {  // an exact repeat is a no-op for both
        ASSERT_EQ(dense_.process_qc(qc), reference_.process_qc(qc));
      }
    }
    compare();
  }

 private:
  std::size_t pick(std::size_t size) {
    return static_cast<std::size_t>(
        rng_.uniform(0, static_cast<std::int64_t>(size) - 1));
  }

  /// Mostly a known non-genesis block, sometimes one the tree never saw.
  Block vote_target() {
    if (blocks_.size() == 1 || rng_.chance(0.05)) {
      Block unknown;
      unknown.parent_id = blocks_.back().id;
      unknown.round = blocks_.back().round + 7;
      unknown.height = blocks_.back().height + 1;
      unknown.proposer = 999;
      unknown.seal();
      return unknown;
    }
    // Bias toward the recent end of the chain, where live QCs land.
    const std::size_t lo = blocks_.size() > 8 ? blocks_.size() - 8 : 1;
    return rng_.chance(0.7)
               ? blocks_[lo + pick(blocks_.size() - lo)]
               : blocks_[1 + pick(blocks_.size() - 1)];
  }

  types::VoteMeta random_meta(const Block& target) {
    types::VoteMeta meta;
    const double kind = rng_.uniform01();
    const auto round = static_cast<std::int64_t>(target.round);
    if (kind < 0.45) {
      meta.mode = VoteMode::Marker;
      meta.marker = static_cast<Round>(rng_.uniform(0, round));
    } else if (kind < 0.85) {
      meta.mode = VoteMode::Intervals;
      // A few random ranges below the voted round (possibly empty, with
      // gaps), the shape interval votes take after forks.
      const int ranges = static_cast<int>(rng_.uniform(0, 3));
      for (int i = 0; i < ranges && round > 1; ++i) {
        const auto lo = static_cast<Round>(rng_.uniform(1, round - 1));
        const auto hi = static_cast<Round>(
            rng_.uniform(static_cast<std::int64_t>(lo), round - 1));
        meta.endorsed.add(lo, hi);
      }
    } else {
      meta.mode = VoteMode::Plain;
    }
    return meta;
  }

  Vote random_vote(const Block& target) {
    const types::VoteMeta meta = random_meta(target);
    Vote vote;
    vote.block_id = target.id;
    vote.round = target.round;
    vote.voter = static_cast<ReplicaId>(rng_.uniform(0, cfg_.n - 1));
    vote.mode = meta.mode;
    vote.marker = meta.marker;
    vote.endorsed = meta.endorsed;
    return vote;
  }

  QuorumCert random_qc() {
    const Block target = vote_target();
    QuorumCert qc;
    qc.block_id = target.id;
    qc.round = target.round;
    qc.parent_id = target.parent_id;
    // A random voter subset, often a quorum; sometimes a voter twice (an
    // unverified assembly), sometimes unsorted.
    std::vector<ReplicaId> voters;
    for (ReplicaId voter = 0; voter < cfg_.n; ++voter) {
      if (rng_.chance(0.75)) voters.push_back(voter);
    }
    if (!voters.empty() && rng_.chance(0.1)) {
      voters.push_back(voters[pick(voters.size())]);
    }
    if (rng_.chance(0.2)) {
      for (std::size_t i = voters.size(); i > 1; --i) {
        std::swap(voters[i - 1], voters[pick(i)]);
      }
    }
    for (const ReplicaId voter : voters) {
      qc.votes.push_back({voter, random_meta(target)});
    }
    return qc;
  }

  void compare() {
    std::vector<BlockId> ids;
    for (const Block& block : blocks_) ids.push_back(block.id);
    ids.push_back(BlockId{});  // never in the tree
    for (const BlockId& id : ids) {
      const Block* block = tree_.get(id);
      const std::uint64_t own = block ? block->round : 1;
      const std::uint64_t height = block ? block->height : 1;
      const auto other = static_cast<std::uint64_t>(rng_.uniform(0, 40));
      ASSERT_EQ(dense_.endorser_count(id), reference_.endorser_count(id));
      for (const std::uint64_t t : {own, height, other}) {
        ASSERT_EQ(dense_.endorser_count(id, t),
                  reference_.endorser_count(id, t));
        ASSERT_EQ(dense_.endorsers(id, t), reference_.endorsers(id, t));
      }
      ASSERT_EQ(dense_.endorsers(id), reference_.endorsers(id));
      ASSERT_EQ(dense_.head_strength(id), reference_.head_strength(id));
      ASSERT_EQ(dense_.effective_strength(id),
                reference_.effective_strength(id));
    }
  }

  Config cfg_;
  Rng rng_;
  chain::BlockTree tree_;
  std::vector<Block> blocks_;
  StrengthTracker dense_;
  NestedMapTracker reference_;
};

class StrengthEquivalence : public ::testing::TestWithParam<Config> {};

TEST_P(StrengthEquivalence, RoundDomainMatchesNestedMaps) {
  Harness harness(GetParam());
  for (int i = 0; i < 400; ++i) {
    ASSERT_NO_FATAL_FAILURE(harness.step(/*height_domain=*/false)) << i;
  }
}

TEST_P(StrengthEquivalence, HeightDomainMatchesNestedMaps) {
  Harness harness(GetParam());
  for (int i = 0; i < 600; ++i) {
    ASSERT_NO_FATAL_FAILURE(harness.step(/*height_domain=*/true)) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, StrengthEquivalence,
    ::testing::Values(Config{4, 1, CountingRule::Sft, 1},
                      Config{7, 2, CountingRule::Sft, 2},
                      Config{7, 2, CountingRule::Sft, 3},
                      Config{10, 3, CountingRule::Sft, 4},
                      Config{7, 2, CountingRule::NaiveAllIndirect, 5},
                      Config{10, 3, CountingRule::NaiveAllIndirect, 6}));

// ---------------------------------------------------------------------------
// Out-of-range voters

TEST(StrengthTracker, VoterIdsAtOrAboveNAreIgnored) {
  constexpr std::uint32_t kN = 4;
  chain::BlockTree tree;
  Block block;
  block.parent_id = tree.genesis_id();
  block.round = 1;
  block.height = 1;
  block.seal();
  ASSERT_EQ(tree.insert(block), chain::BlockTree::InsertResult::Inserted);
  Block child;
  child.parent_id = block.id;
  child.round = 2;
  child.height = 2;
  child.seal();
  ASSERT_EQ(tree.insert(child), chain::BlockTree::InsertResult::Inserted);

  StrengthTracker tracker(tree, kN, /*f=*/1);
  QuorumCert qc;
  qc.block_id = child.id;
  qc.round = child.round;
  qc.parent_id = block.id;
  for (const ReplicaId voter : {ReplicaId{1}, ReplicaId{kN}, ReplicaId{kN + 5},
                                kNoReplica}) {
    types::VoteMeta meta;
    meta.mode = VoteMode::Marker;  // marker 0 endorses the parent too
    qc.votes.push_back({voter, meta});
  }
  EXPECT_TRUE(tracker.process_qc(qc).empty());
  const std::vector<ReplicaId> only_one{1};
  EXPECT_EQ(tracker.endorser_count(child.id), 1u);
  EXPECT_EQ(tracker.endorser_count(block.id), 1u);
  // No id >= n lands in any block's slots (nor in a neighbour's).
  for (const BlockId& id : {child.id, block.id}) {
    EXPECT_EQ(tracker.endorsers(id), only_one);
    EXPECT_EQ(tracker.endorsers(id, ~std::uint64_t{0}), only_one);
  }

  Vote extra;
  extra.block_id = child.id;
  extra.round = child.round;
  extra.voter = kN;
  extra.mode = VoteMode::Marker;
  EXPECT_TRUE(tracker.process_extra_vote(extra).empty());
  EXPECT_EQ(tracker.endorser_count(child.id), 1u);

  tracker.ingest_height_vote(child.id, kN, 0);
  tracker.ingest_height_vote(child.id, kN + 1, 0);
  EXPECT_EQ(tracker.endorser_count(child.id, 3), 1u);
  EXPECT_EQ(tracker.endorsers(block.id, 3), only_one);
}

}  // namespace
}  // namespace sftbft::core
