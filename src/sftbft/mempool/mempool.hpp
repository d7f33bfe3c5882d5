// Mempool and client workload generation.
//
// The paper's setup: "sufficiently many transactions are generated and
// submitted by the clients so that any leader always has enough transactions
// to include in its proposed block" (~1000 txns, ~450 KB per block). The
// WorkloadGenerator keeps the pool saturated with Poisson arrivals; the
// Mempool hands leaders a batch and drops transactions once they commit.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_set>

#include "sftbft/common/rng.hpp"
#include "sftbft/common/types.hpp"
#include "sftbft/sim/scheduler.hpp"
#include "sftbft/types/transaction.hpp"

namespace sftbft::mempool {

class Mempool {
 public:
  /// Outcome of a submission — the mempool's backpressure signal.
  enum class Admit : std::uint8_t {
    kAccepted,   ///< queued
    kDuplicate,  ///< id already pending, in flight, or recently committed
    kFull,       ///< bounded capacity reached; resubmit later
  };

  /// Admits a transaction. Duplicates (by id, across the pending queue,
  /// in-flight batches, and a bounded window of recent commits of ids this
  /// pool admitted) and over-capacity submissions are rejected, never
  /// silently double-queued. Only the owning replica's clients (its
  /// WorkloadGenerator or AdmissionFrontend, id space `replica << 40`)
  /// submit here, so no other replica's transaction ever enters this pool.
  Admit submit(types::Transaction txn);

  /// Bounds the pending queue (0 = unbounded, the default). When full,
  /// submit returns kFull — the AdmissionFrontend's backpressure source.
  void set_capacity(std::size_t capacity) { capacity_ = capacity; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Takes up to `max_txns` pending transactions, oldest first. Transactions
  /// in flight (already proposed but not committed) are not re-proposed.
  [[nodiscard]] types::Payload make_batch(std::size_t max_txns);

  /// Marks a batch as committed: drops the pending/in-flight bookkeeping of
  /// the ids this pool admitted and remembers them in the committed window.
  /// Ids it never admitted (other replicas' transactions in an inline
  /// block) are skipped after two lookups.
  void mark_committed(const types::Payload& payload);

  /// Returns a batch's transactions to the pending queue (leader's block
  /// abandoned — e.g. the round timed out before certification).
  void requeue(const types::Payload& payload);

  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::size_t in_flight() const { return in_flight_.size(); }

  /// How many committed ids the dedup window remembers (FIFO eviction):
  /// enough to cover every in-flight client retry horizon in the sims
  /// without growing with ledger length. The window holds only ids this
  /// pool admitted, the only ids `submit` can receive, so foreign commits
  /// never evict them.
  static constexpr std::size_t kCommittedMemory = 1 << 14;

 private:
  void remember_committed(std::uint64_t id);

  std::deque<types::Transaction> queue_;
  std::unordered_set<std::uint64_t> in_flight_;
  /// Ids currently pending or in flight (the live dedup set).
  std::unordered_set<std::uint64_t> known_;
  /// Recently committed ids (bounded FIFO window).
  std::unordered_set<std::uint64_t> committed_set_;
  std::deque<std::uint64_t> committed_order_;
  std::size_t capacity_ = 0;
};

struct WorkloadConfig {
  /// Mean transaction arrival interval; 0 disables timed generation (the
  /// pool is then refilled instantaneously via `top_up`).
  SimDuration mean_interarrival = 0;
  std::uint32_t txn_size_bytes = 450;  ///< paper: ~450 KB / ~1000 txns
  std::size_t target_pool_size = 4000;
};

/// Feeds one replica's mempool. Deterministic given its RNG.
class WorkloadGenerator {
 public:
  WorkloadGenerator(sim::Scheduler& sched, Mempool& pool, WorkloadConfig config,
                    Rng rng);

  /// Starts Poisson arrivals (if mean_interarrival > 0).
  void start();

  /// Synchronously refills the pool to the target size ("saturated clients").
  void top_up();

 private:
  void schedule_next();

  sim::Scheduler& sched_;
  Mempool& pool_;
  WorkloadConfig config_;
  Rng rng_;
  std::uint64_t next_id_ = 0;
  /// Distinguishes generators so txn ids are globally unique.
  std::uint64_t id_space_ = 0;

 public:
  /// Assigns a disjoint id space (call with the replica id).
  void set_id_space(std::uint64_t space) { id_space_ = space; }
};

}  // namespace sftbft::mempool
