// VoteHistory: per-fork frontier maintenance, marker computation (Fig. 4)
// and interval computation (Sec. 3.4) on constructed fork trees, plus an
// equivalence check of the newest-first scan and the record_vote fast path
// against the plain all-entries loops on seeded random fork trees, live and
// after a restart whose restored entries arrive late or never.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "sftbft/common/rng.hpp"
#include "sftbft/core/vote_history.hpp"

namespace sftbft::core {
namespace {

using types::Block;

Block child_of(const Block& parent, Round round) {
  Block block;
  block.parent_id = parent.id;
  block.round = round;
  block.height = parent.height + 1;
  block.qc.block_id = parent.id;
  block.qc.round = parent.round;
  block.seal();
  return block;
}

class VoteHistoryTest : public ::testing::Test {
 protected:
  chain::BlockTree tree_;
  VoteHistory history_{tree_};
  Block genesis_ = tree_.genesis();

  const Block& add(const Block& parent, Round round) {
    const Block block = child_of(parent, round);
    tree_.insert(block);
    return *tree_.get(block.id);
  }
};

TEST_F(VoteHistoryTest, NoConflictsMeansMarkerZero) {
  const Block& b1 = add(genesis_, 1);
  const Block& b2 = add(b1, 2);
  history_.record_vote(b1);
  EXPECT_EQ(history_.marker_for(b2), 0u);
}

TEST_F(VoteHistoryTest, FrontierKeepsOneEntryPerFork) {
  const Block& b1 = add(genesis_, 1);
  const Block& b2 = add(b1, 2);
  const Block& b3 = add(b2, 3);
  history_.record_vote(b1);
  history_.record_vote(b2);
  history_.record_vote(b3);
  // All on one fork: frontier collapses to the latest vote.
  ASSERT_EQ(history_.frontier().size(), 1u);
  EXPECT_EQ(history_.frontier()[0].block_id, b3.id);
}

TEST_F(VoteHistoryTest, MarkerIsMaxConflictingVotedRound) {
  //        g - b1 - b2 - b5(main)
  //              \- f3 - f4(fork)
  const Block& b1 = add(genesis_, 1);
  const Block& b2 = add(b1, 2);
  const Block& f3 = add(b1, 3);
  const Block& f4 = add(f3, 4);
  const Block& b5 = add(b2, 5);

  history_.record_vote(b2);
  history_.record_vote(f3);
  history_.record_vote(f4);

  // Voting for b5 on the main fork: conflicting voted blocks are f3, f4;
  // the marker is the max conflicting round = 4.
  EXPECT_EQ(history_.marker_for(b5), 4u);
  ASSERT_EQ(history_.frontier().size(), 2u);
}

TEST_F(VoteHistoryTest, MarkerIgnoresOwnForkVotes) {
  const Block& b1 = add(genesis_, 1);
  const Block& b2 = add(b1, 2);
  const Block& b3 = add(b2, 3);
  history_.record_vote(b1);
  history_.record_vote(b2);
  EXPECT_EQ(history_.marker_for(b3), 0u);  // ancestors don't conflict
}

TEST_F(VoteHistoryTest, IntervalsFullHistoryNoForks) {
  const Block& b1 = add(genesis_, 1);
  const Block& b2 = add(b1, 2);
  const Block& b5 = add(b2, 5);
  history_.record_vote(b1);
  history_.record_vote(b2);
  const IntervalSet intervals = history_.intervals_for(b5, 0);
  EXPECT_EQ(intervals, IntervalSet::single(1, 5));  // endorse everything
}

TEST_F(VoteHistoryTest, IntervalsSubtractForkWindows) {
  //   g - b1 - b2 --------- b7(main, about to vote)
  //         \- f3 - f5(fork, voted)
  const Block& b1 = add(genesis_, 1);
  const Block& b2 = add(b1, 2);
  const Block& f3 = add(b1, 3);
  const Block& f5 = add(f3, 5);
  const Block& b7 = add(b2, 7);

  history_.record_vote(b2);
  history_.record_vote(f3);
  history_.record_vote(f5);

  // Fork F's D_F = [r_l + 1, r_h] with r_l = round(common ancestor b7, f5)
  // = round(b1) = 1 and r_h = 5. I = [1,7] \ [2,5] = [1,1] ∪ [6,7].
  const IntervalSet intervals = history_.intervals_for(b7, 0);
  IntervalSet expected = IntervalSet::single(1, 7);
  expected.subtract(2, 5);
  EXPECT_EQ(intervals, expected);

  // Note the marker solution would be coarser: marker = 5 endorses only
  // [6, 7] — intervals additionally recover round 1 (better liveness).
  EXPECT_EQ(history_.marker_for(b7), 5u);
  EXPECT_TRUE(intervals.contains(1));
}

TEST_F(VoteHistoryTest, IntervalsWindowed) {
  const Block& b1 = add(genesis_, 1);
  const Block& b2 = add(b1, 2);
  const Block& b9 = add(b2, 9);
  history_.record_vote(b1);
  history_.record_vote(b2);
  // Window of 3 rounds: I = [9-3, 9] = [6, 9].
  const IntervalSet intervals = history_.intervals_for(b9, 3);
  EXPECT_EQ(intervals, IntervalSet::single(6, 9));
}

TEST_F(VoteHistoryTest, RecordsRoundTripPreservesMarkersAndIntervals) {
  // Crash-recovery invariant (storage layer): exporting the frontier and
  // importing it into a fresh history over the same tree must reproduce
  // marker_for and intervals_for exactly — no vote replay needed.
  //        g - b1 - b2 - b6(main)
  //              \- f3 - f4(fork 1)
  //         \- f5 (fork 2, off genesis)
  const Block& b1 = add(genesis_, 1);
  const Block& b2 = add(b1, 2);
  const Block& f3 = add(b1, 3);
  const Block& f4 = add(f3, 4);
  const Block& f5 = add(genesis_, 5);
  const Block& b6 = add(b2, 6);

  history_.record_vote(b1);
  history_.record_vote(b2);
  history_.record_vote(f3);
  history_.record_vote(f4);
  history_.record_vote(f5);

  VoteHistory imported(tree_);
  imported.from_records(history_.to_records());

  EXPECT_EQ(imported.frontier(), history_.frontier());
  for (const Block* probe : {&b6, &f4, &f5}) {
    EXPECT_EQ(imported.marker_for(*probe), history_.marker_for(*probe));
    for (const Round window : {Round{0}, Round{2}, Round{10}}) {
      EXPECT_EQ(imported.intervals_for(*probe, window),
                history_.intervals_for(*probe, window));
    }
  }
}

TEST_F(VoteHistoryTest, FromRecordsPrunesDominatedEntries) {
  // WAL replay hands over every vote since the last snapshot, oldest first;
  // import must collapse same-fork records to the frontier.
  const Block& b1 = add(genesis_, 1);
  const Block& b2 = add(b1, 2);
  const Block& b3 = add(b2, 3);
  VoteHistory imported(tree_);
  imported.from_records({{b1.id, 1}, {b2.id, 2}, {b3.id, 3}});
  ASSERT_EQ(imported.frontier().size(), 1u);
  EXPECT_EQ(imported.frontier()[0].block_id, b3.id);
}

TEST_F(VoteHistoryTest, UnknownRestoredEntriesAreConservative) {
  // A restored record whose block the rebuilt tree has not re-learned yet
  // must count as conflicting: the marker can only be too high and the
  // intervals too small (under-endorsement is safe; over-endorsement
  // would threaten Theorem 1).
  const Block& b1 = add(genesis_, 1);
  const Block& b9 = add(b1, 9);
  types::BlockId unknown;
  unknown.bytes[0] = 0x77;
  VoteHistory imported(tree_);
  imported.from_records({{unknown, 6}});
  EXPECT_EQ(imported.marker_for(b9), 6u);
  IntervalSet expected = IntervalSet::single(1, 9);
  expected.subtract(1, 6);
  EXPECT_EQ(imported.intervals_for(b9, 0), expected);
}

TEST_F(VoteHistoryTest, MultipleForksAllSubtracted) {
  //   g - b1 - b6(main)
  //    \- f2 - f3 (fork 1, voted f3)
  //    \- f4 (fork 2, voted f4)
  const Block& b1 = add(genesis_, 1);
  const Block& f2 = add(genesis_, 2);
  const Block& f3 = add(f2, 3);
  const Block& f4 = add(genesis_, 4);
  const Block& b6 = add(b1, 6);

  history_.record_vote(b1);
  history_.record_vote(f3);
  history_.record_vote(f4);

  // D_fork1 = [0+1, 3] = [1,3]; D_fork2 = [1, 4]; I = [1,6] \ [1,4] = [5,6].
  const IntervalSet intervals = history_.intervals_for(b6, 0);
  EXPECT_EQ(intervals, IntervalSet::single(5, 6));
  EXPECT_EQ(history_.marker_for(b6), 4u);
}

TEST_F(VoteHistoryTest, RestoredRecordsReLearnedAsAncestorsAreDropped) {
  // Restored records a <- b, both unknown when imported, so both are kept.
  // Once sync delivers them, a vote on a child of b must drop both: the
  // record_vote fast path (replace back() only) must not run before a full
  // pass has seen every entry known.
  const Block a = child_of(genesis_, 1);
  const Block b = child_of(a, 2);
  VoteHistory imported(tree_);
  imported.from_records({{a.id, 1, 1}, {b.id, 2, 2}});
  ASSERT_EQ(imported.frontier().size(), 2u);
  tree_.insert(a);
  tree_.insert(b);
  const Block& c = add(*tree_.get(b.id), 3);
  imported.record_vote(c);
  ASSERT_EQ(imported.frontier().size(), 1u);
  EXPECT_EQ(imported.frontier()[0].block_id, c.id);
}

/// VoteHistory as it was before the newest-first scan and the record_vote
/// fast path: every vote and every marker walks to every frontier entry,
/// oldest first. The optimized class must agree with it exactly.
class ReferenceHistory {
 public:
  using Entry = VoteHistory::FrontierEntry;

  explicit ReferenceHistory(const chain::BlockTree& tree) : tree_(&tree) {}

  void record_vote(const Block& block) {
    std::erase_if(frontier_, [&](const Entry& entry) {
      return tree_->extends(block.id, entry.block_id);
    });
    frontier_.push_back({block.id, block.round, block.height});
  }

  [[nodiscard]] Round marker_for(const Block& block) const {
    Round marker = 0;
    for (const Entry& entry : frontier_) {
      if (entry.round > marker && !tree_->extends(block.id, entry.block_id)) {
        marker = entry.round;
      }
    }
    return marker;
  }

  [[nodiscard]] Height height_marker_for(const Block& block) const {
    Height marker = 0;
    for (const Entry& entry : frontier_) {
      if (entry.height > marker && !tree_->extends(block.id, entry.block_id)) {
        marker = entry.height;
      }
    }
    return marker;
  }

  [[nodiscard]] IntervalSet intervals_for(const Block& block,
                                          Round window) const {
    const Round r = block.round;
    const Round lo = (window == 0 || r <= window) ? 1 : r - window;
    IntervalSet endorsed = IntervalSet::single(lo, r);
    for (const Entry& entry : frontier_) {
      if (tree_->extends(block.id, entry.block_id)) continue;
      if (!tree_->contains(entry.block_id)) {
        endorsed.subtract(1, entry.round);
        continue;
      }
      const Block& ancestor = tree_->common_ancestor(block.id, entry.block_id);
      endorsed.subtract(ancestor.round + 1, entry.round);
    }
    return endorsed;
  }

  void from_records(const std::vector<Entry>& records) {
    frontier_.clear();
    for (const Entry& record : records) {
      std::erase_if(frontier_, [&](const Entry& entry) {
        return tree_->extends(record.block_id, entry.block_id);
      });
      const bool dominated =
          std::ranges::any_of(frontier_, [&](const Entry& entry) {
            return tree_->extends(entry.block_id, record.block_id);
          });
      if (!dominated) frontier_.push_back(record);
    }
  }

  [[nodiscard]] const std::vector<Entry>& frontier() const {
    return frontier_;
  }

 private:
  const chain::BlockTree* tree_;
  std::vector<Entry> frontier_;
};

/// Seeded random fork trees: every block has a higher round than all
/// before it (so votes on new blocks rise), mostly on the newest block,
/// sometimes on a recent one (short forks), rarely anywhere (dead forks).
class RandomForks {
 public:
  explicit RandomForks(std::uint64_t seed) : rng_(seed) {
    blocks_.push_back(Block::genesis());
  }

  Block next() {
    const std::int64_t last = static_cast<std::int64_t>(blocks_.size()) - 1;
    const double u = rng_.uniform01();
    std::int64_t parent = last;
    if (u > 0.9) {
      parent = rng_.uniform(0, last);
    } else if (u > 0.7) {
      parent = rng_.uniform(std::max<std::int64_t>(0, last - 8), last);
    }
    round_ += static_cast<Round>(rng_.uniform(1, 3));
    blocks_.push_back(
        child_of(blocks_[static_cast<std::size_t>(parent)], round_));
    return blocks_.back();
  }

  Rng& rng() { return rng_; }

 private:
  Rng rng_;
  std::vector<Block> blocks_;
  Round round_ = 0;
};

/// Every query on a handful of known probe blocks (the newest ones and a
/// few at random), plus the frontier itself, must match the reference.
void expect_same(const chain::BlockTree& tree, const VoteHistory& fast,
                 const ReferenceHistory& ref,
                 const std::vector<types::BlockId>& ids, Rng& rng,
                 const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(fast.frontier(), ref.frontier());
  std::vector<const Block*> probes;
  for (std::size_t back = 1; back <= 3 && back <= ids.size(); ++back) {
    probes.push_back(tree.get(ids[ids.size() - back]));
  }
  for (int i = 0; i < 3 && !ids.empty(); ++i) {
    probes.push_back(tree.get(ids[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(ids.size()) - 1))]));
  }
  for (const Block* probe : probes) {
    if (probe == nullptr) continue;  // not linked into this tree yet
    EXPECT_EQ(fast.marker_for(*probe), ref.marker_for(*probe));
    EXPECT_EQ(fast.height_marker_for(*probe), ref.height_marker_for(*probe));
    for (const Round window : {Round{0}, Round{4}}) {
      EXPECT_EQ(fast.intervals_for(*probe, window),
                ref.intervals_for(*probe, window));
    }
  }
}

TEST(VoteHistoryEquivalence, MatchesAllEntriesLoopsOnRandomForks) {
  constexpr int kSteps = 150;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    RandomForks forks(seed);
    Rng& rng = forks.rng();

    // Live run: insert each block, vote on most of them.
    chain::BlockTree live;
    VoteHistory fast(live);
    ReferenceHistory ref(live);
    std::vector<Block> history;
    std::vector<types::BlockId> ids;
    std::vector<VoteHistory::FrontierEntry> vote_log;
    for (int step = 0; step < kSteps; ++step) {
      const Block block = forks.next();
      live.insert(block);
      history.push_back(block);
      ids.push_back(block.id);
      if (rng.chance(0.6)) {
        fast.record_vote(*live.get(block.id));
        ref.record_vote(*live.get(block.id));
        vote_log.push_back({block.id, block.round, block.height});
      }
      expect_same(live, fast, ref, ids, rng,
                  "live seed " + std::to_string(seed) + " step " +
                      std::to_string(step));
      if (::testing::Test::HasFatalFailure()) return;
    }

    // Restart: a new tree that has re-learned only part of the history
    // (withheld blocks and their descendants are unknown), restored from
    // the exported frontier or from the whole vote log (WAL replay, where
    // unknown records on one fork are kept side by side until re-learned),
    // maybe reordered. Some withheld blocks arrive later; the lost ones
    // never do, as fork blocks a restarted replica voted before its crash
    // and sync never fetches.
    chain::BlockTree restored;
    std::vector<Block> withheld;
    std::vector<types::BlockId> known_ids;
    for (const Block& block : history) {
      if (rng.chance(0.3)) {
        if (!rng.chance(0.4)) withheld.push_back(block);  // else lost
      } else {
        restored.insert(block);
        known_ids.push_back(block.id);
      }
    }
    std::vector<VoteHistory::FrontierEntry> records =
        rng.chance(0.5) ? fast.to_records() : vote_log;
    if (rng.chance(0.5)) std::ranges::reverse(records);
    VoteHistory fast_restored(restored);
    ReferenceHistory ref_restored(restored);
    fast_restored.from_records(records);
    ref_restored.from_records(records);
    expect_same(restored, fast_restored, ref_restored, known_ids, rng,
                "restore seed " + std::to_string(seed));

    // Sync delivers the withheld (not the lost) blocks in round order
    // while new blocks and votes keep coming.
    std::size_t next_withheld = 0;
    for (int step = 0; step < kSteps; ++step) {
      if (next_withheld < withheld.size() && rng.chance(0.3)) {
        restored.insert(withheld[next_withheld]);
        known_ids.push_back(withheld[next_withheld].id);
        ++next_withheld;
      }
      const Block block = forks.next();
      restored.insert(block);
      known_ids.push_back(block.id);
      if (restored.contains(block.id) && rng.chance(0.6)) {
        fast_restored.record_vote(*restored.get(block.id));
        ref_restored.record_vote(*restored.get(block.id));
      }
      expect_same(restored, fast_restored, ref_restored, known_ids, rng,
                  "after restore seed " + std::to_string(seed) + " step " +
                      std::to_string(step));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace sftbft::core
