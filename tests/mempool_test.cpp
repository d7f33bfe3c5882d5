// Mempool + workload generation: batching, in-flight tracking, requeue.
#include <gtest/gtest.h>

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
