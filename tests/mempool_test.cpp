// Mempool + workload generation: batching, in-flight tracking, requeue.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <unordered_set>
#include <vector>

#include "sftbft/mempool/mempool.hpp"

namespace sftbft::mempool {
namespace {

types::Transaction txn(std::uint64_t id) {
  return {.id = id, .submitted_at = 0, .size_bytes = 450};
}

TEST(Mempool, BatchTakesOldestFirst) {
  Mempool pool;
  for (std::uint64_t i = 0; i < 10; ++i) pool.submit(txn(i));
  const types::Payload batch = pool.make_batch(4);
  ASSERT_EQ(batch.txns.size(), 4u);
  EXPECT_EQ(batch.txns[0].id, 0u);
  EXPECT_EQ(batch.txns[3].id, 3u);
  EXPECT_EQ(pool.pending(), 6u);
  EXPECT_EQ(pool.in_flight(), 4u);
}

TEST(Mempool, BatchSmallerWhenPoolLow) {
  Mempool pool;
  pool.submit(txn(1));
  EXPECT_EQ(pool.make_batch(100).txns.size(), 1u);
  EXPECT_TRUE(pool.make_batch(100).txns.empty());
}

TEST(Mempool, CommittedBatchLeavesInFlight) {
  Mempool pool;
  for (std::uint64_t i = 0; i < 5; ++i) pool.submit(txn(i));
  const types::Payload batch = pool.make_batch(5);
  pool.mark_committed(batch);
  EXPECT_EQ(pool.in_flight(), 0u);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(Mempool, RequeueReturnsTxns) {
  Mempool pool;
  for (std::uint64_t i = 0; i < 5; ++i) pool.submit(txn(i));
  const types::Payload batch = pool.make_batch(3);
  pool.requeue(batch);
  EXPECT_EQ(pool.pending(), 5u);
  EXPECT_EQ(pool.in_flight(), 0u);
  // Requeued txns can be batched again.
  EXPECT_EQ(pool.make_batch(5).txns.size(), 5u);
}

TEST(Mempool, RequeueAfterCommitIsNoop) {
  Mempool pool;
  pool.submit(txn(1));
  const types::Payload batch = pool.make_batch(1);
  pool.mark_committed(batch);
  pool.requeue(batch);  // already committed: nothing to return
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(Mempool, SubmitDedupsById) {
  Mempool pool;
  EXPECT_EQ(pool.submit(txn(7)), Mempool::Admit::kAccepted);
  EXPECT_EQ(pool.submit(txn(7)), Mempool::Admit::kDuplicate);
  EXPECT_EQ(pool.pending(), 1u);
  // Still a duplicate while the txn is in flight...
  const types::Payload batch = pool.make_batch(1);
  EXPECT_EQ(pool.submit(txn(7)), Mempool::Admit::kDuplicate);
  // ...and after it committed (the bounded committed window).
  pool.mark_committed(batch);
  EXPECT_EQ(pool.submit(txn(7)), Mempool::Admit::kDuplicate);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(Mempool, RequeuedTxnStaysDeduped) {
  Mempool pool;
  pool.submit(txn(3));
  const types::Payload batch = pool.make_batch(1);
  pool.requeue(batch);
  EXPECT_EQ(pool.submit(txn(3)), Mempool::Admit::kDuplicate);
  EXPECT_EQ(pool.pending(), 1u);
}

TEST(Mempool, ForeignCommitLeavesPoolUntouched) {
  // Another replica's transaction, committed in an inline block: it was
  // never admitted here, so it touches neither the queue, the in-flight
  // set nor the committed window.
  Mempool pool;
  for (std::uint64_t i = 0; i < 3; ++i) pool.submit(txn(i));
  (void)pool.make_batch(1);
  types::Payload foreign;
  foreign.txns.push_back(txn(std::uint64_t{2} << 40));
  pool.mark_committed(foreign);
  EXPECT_EQ(pool.pending(), 2u);
  EXPECT_EQ(pool.in_flight(), 1u);
  EXPECT_EQ(pool.submit(txn(std::uint64_t{2} << 40)),
            Mempool::Admit::kAccepted);
}

TEST(Mempool, RequeuedTxnThatCommitsStaysDuplicate) {
  Mempool pool;
  pool.submit(txn(3));
  const types::Payload batch = pool.make_batch(1);
  pool.requeue(batch);
  pool.mark_committed(batch);  // a late QC commits the abandoned block
  EXPECT_EQ(pool.submit(txn(3)), Mempool::Admit::kDuplicate);
  // The id is still queued, so it is batched again; when that batch
  // commits the id is only in flight, and it is still remembered.
  ASSERT_EQ(pool.make_batch(1).txns.size(), 1u);
  pool.mark_committed(batch);
  EXPECT_EQ(pool.in_flight(), 0u);
  EXPECT_EQ(pool.submit(txn(3)), Mempool::Admit::kDuplicate);
}

TEST(Mempool, CommittedWindowCountsOnlyAdmittedIds) {
  // kCommittedMemory + 1 own commits, each followed by a foreign one: only
  // own ids count toward the window, so exactly the first is evicted.
  Mempool pool;
  for (std::uint64_t i = 0; i <= Mempool::kCommittedMemory; ++i) {
    ASSERT_EQ(pool.submit(txn(i)), Mempool::Admit::kAccepted);
    pool.mark_committed(pool.make_batch(1));
    types::Payload foreign;
    foreign.txns.push_back(txn((std::uint64_t{1} << 40) | i));
    pool.mark_committed(foreign);
  }
  EXPECT_EQ(pool.submit(txn(1)), Mempool::Admit::kDuplicate);
  EXPECT_EQ(pool.submit(txn(0)), Mempool::Admit::kAccepted);
}

TEST(Mempool, BoundedCapacityBackpressure) {
  Mempool pool;
  pool.set_capacity(3);
  EXPECT_EQ(pool.submit(txn(0)), Mempool::Admit::kAccepted);
  EXPECT_EQ(pool.submit(txn(1)), Mempool::Admit::kAccepted);
  EXPECT_EQ(pool.submit(txn(2)), Mempool::Admit::kAccepted);
  EXPECT_EQ(pool.submit(txn(3)), Mempool::Admit::kFull);
  EXPECT_EQ(pool.pending(), 3u);
  // Draining the queue (even into in-flight) frees capacity: the bound is
  // on the pending backlog, not on total outstanding work.
  (void)pool.make_batch(2);
  EXPECT_EQ(pool.submit(txn(3)), Mempool::Admit::kAccepted);
  // Duplicate check runs before the capacity check — a retry of a queued
  // txn must not read as backpressure.
  EXPECT_EQ(pool.submit(txn(3)), Mempool::Admit::kDuplicate);
}

TEST(Mempool, CapacityZeroIsUnbounded) {
  Mempool pool;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    EXPECT_EQ(pool.submit(txn(i)), Mempool::Admit::kAccepted);
  }
  EXPECT_EQ(pool.pending(), 5000u);
}

/// The Mempool's bookkeeping as it was before the flat id index: three
/// unordered_sets and the FIFO committed window. The shipped pool must
/// answer every call exactly as this does.
class ReferencePool {
 public:
  Mempool::Admit submit(const types::Transaction& txn) {
    if (known_.contains(txn.id) || committed_set_.contains(txn.id)) {
      return Mempool::Admit::kDuplicate;
    }
    if (capacity_ != 0 && queue_.size() >= capacity_) {
      return Mempool::Admit::kFull;
    }
    known_.insert(txn.id);
    queue_.push_back(txn);
    return Mempool::Admit::kAccepted;
  }
  void set_capacity(std::size_t capacity) { capacity_ = capacity; }

  types::Payload make_batch(std::size_t max_txns) {
    types::Payload payload;
    while (payload.txns.size() < max_txns && !queue_.empty()) {
      types::Transaction txn = queue_.front();
      queue_.pop_front();
      if (in_flight_.contains(txn.id)) continue;
      in_flight_.insert(txn.id);
      payload.txns.push_back(txn);
    }
    return payload;
  }

  void mark_committed(const types::Payload& payload) {
    for (const types::Transaction& txn : payload.txns) {
      const bool queued = known_.erase(txn.id) > 0;
      const bool flying = in_flight_.erase(txn.id) > 0;
      if (!(queued || flying) || !committed_set_.insert(txn.id).second) {
        continue;
      }
      ++remembered_;
      committed_order_.push_back(txn.id);
      while (committed_order_.size() > Mempool::kCommittedMemory) {
        committed_set_.erase(committed_order_.front());
        committed_order_.pop_front();
      }
    }
  }

  void requeue(const types::Payload& payload) {
    for (const types::Transaction& txn : payload.txns) {
      if (in_flight_.erase(txn.id) > 0) queue_.push_back(txn);
    }
  }

  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::size_t in_flight() const { return in_flight_.size(); }
  [[nodiscard]] std::size_t remembered() const { return remembered_; }

 private:
  std::deque<types::Transaction> queue_;
  std::unordered_set<std::uint64_t> in_flight_;
  std::unordered_set<std::uint64_t> known_;
  std::unordered_set<std::uint64_t> committed_set_;
  std::deque<std::uint64_t> committed_order_;
  std::size_t capacity_ = 0;
  std::size_t remembered_ = 0;
};

std::vector<std::uint64_t> ids_of(const types::Payload& payload) {
  std::vector<std::uint64_t> ids;
  for (const types::Transaction& txn : payload.txns) ids.push_back(txn.id);
  return ids;
}

TEST(Mempool, MatchesThreeSetReferenceOnRandomOperations) {
  Mempool pool;
  ReferencePool ref;
  Rng rng(23);
  std::vector<types::Payload> taken;
  // Fresh ids are random above a counter (unique, with home slots spread
  // at random, so probe runs collide and deletions must shift them).
  std::vector<std::uint64_t> seen;
  // An own id submitted before (possibly evicted from the committed
  // window), or a fresh one.
  const auto own_id = [&] {
    if (!seen.empty() && rng.chance(0.2)) {
      return seen[static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(seen.size()) - 1))];
    }
    seen.push_back(
        (static_cast<std::uint64_t>(rng.uniform(0, 1 << 30)) << 20) |
        seen.size());
    return seen.back();
  };
  for (int step = 0; step < 150000; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const double u = rng.uniform01();
    if (u < 0.45) {
      const types::Transaction t = txn(own_id());
      ASSERT_EQ(pool.submit(t), ref.submit(t));
    } else if (u < 0.7) {
      const auto max = static_cast<std::size_t>(rng.uniform(0, 30));
      types::Payload batch = pool.make_batch(max);
      ASSERT_EQ(ids_of(batch), ids_of(ref.make_batch(max)));
      taken.push_back(std::move(batch));
    } else if (u < 0.9) {
      types::Payload payload;
      if (!taken.empty() && rng.chance(0.7)) {
        payload = taken[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(taken.size()) - 1))];
      }
      // Foreign ids (another replica's space) and stray own ids.
      for (int i = static_cast<int>(rng.uniform(0, 4)); i > 0; --i) {
        payload.txns.push_back(
            txn(rng.chance(0.5)
                    ? (std::uint64_t{1} << 40) | static_cast<std::uint64_t>(
                                                     rng.uniform(0, 1 << 20))
                    : own_id()));
      }
      pool.mark_committed(payload);
      ref.mark_committed(payload);
    } else if (u < 0.98) {
      if (taken.empty()) continue;
      const types::Payload& batch = taken[static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(taken.size()) - 1))];
      pool.requeue(batch);
      ref.requeue(batch);
    } else {
      const auto capacity = static_cast<std::size_t>(
          rng.chance(0.5) ? 0 : rng.uniform(5, 200));
      pool.set_capacity(capacity);
      ref.set_capacity(capacity);
    }
    ASSERT_EQ(pool.pending(), ref.pending());
    ASSERT_EQ(pool.in_flight(), ref.in_flight());
  }
  // The committed window wrapped, so eviction ran.
  EXPECT_GT(ref.remembered(), Mempool::kCommittedMemory);
  pool.set_capacity(0);
  ref.set_capacity(0);
  EXPECT_EQ(ids_of(pool.make_batch(1 << 20)), ids_of(ref.make_batch(1 << 20)));
  // Every id ever seen answers the duplicate check the same way.
  for (const std::uint64_t id : seen) {
    ASSERT_EQ(pool.submit(txn(id)), ref.submit(txn(id))) << "id " << id;
  }
}

TEST(Workload, TopUpFillsToTarget) {
  sim::Scheduler sched;
  Mempool pool;
  WorkloadGenerator gen(sched, pool,
                        {.mean_interarrival = 0, .target_pool_size = 50},
                        Rng(1));
  gen.top_up();
  EXPECT_EQ(pool.pending(), 50u);
}

TEST(Workload, PoissonArrivalsRespectTarget) {
  sim::Scheduler sched;
  Mempool pool;
  WorkloadGenerator gen(
      sched, pool,
      {.mean_interarrival = millis(1), .target_pool_size = 20}, Rng(2));
  gen.start();
  sched.run_for(seconds(1));
  EXPECT_LE(pool.pending(), 20u);
  EXPECT_GT(pool.pending(), 0u);
}

TEST(Workload, IdSpacesDisjoint) {
  sim::Scheduler sched;
  Mempool pool_a, pool_b;
  WorkloadGenerator gen_a(sched, pool_a, {.target_pool_size = 10}, Rng(1));
  WorkloadGenerator gen_b(sched, pool_b, {.target_pool_size = 10}, Rng(1));
  gen_a.set_id_space(1);
  gen_b.set_id_space(2);
  gen_a.top_up();
  gen_b.top_up();
  const auto batch_a = pool_a.make_batch(10);
  const auto batch_b = pool_b.make_batch(10);
  for (const auto& ta : batch_a.txns) {
    for (const auto& tb : batch_b.txns) EXPECT_NE(ta.id, tb.id);
  }
}

}  // namespace
}  // namespace sftbft::mempool
