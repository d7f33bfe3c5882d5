#include "sftbft/mempool/mempool.hpp"

namespace sftbft::mempool {

Mempool::Admit Mempool::submit(types::Transaction txn) {
  if (known_.contains(txn.id) || committed_set_.contains(txn.id)) {
    return Admit::kDuplicate;
  }
  if (capacity_ != 0 && queue_.size() >= capacity_) return Admit::kFull;
  known_.insert(txn.id);
  queue_.push_back(std::move(txn));
  return Admit::kAccepted;
}

void Mempool::remember_committed(std::uint64_t id) {
  if (!committed_set_.insert(id).second) return;
  committed_order_.push_back(id);
  while (committed_order_.size() > kCommittedMemory) {
    committed_set_.erase(committed_order_.front());
    committed_order_.pop_front();
  }
}

types::Payload Mempool::make_batch(std::size_t max_txns) {
  types::Payload payload;
  payload.txns.reserve(std::min(max_txns, queue_.size()));
  while (payload.txns.size() < max_txns && !queue_.empty()) {
    types::Transaction txn = std::move(queue_.front());
    queue_.pop_front();
    if (in_flight_.contains(txn.id)) continue;
    in_flight_.insert(txn.id);
    payload.txns.push_back(std::move(txn));
  }
  return payload;
}

void Mempool::mark_committed(const types::Payload& payload) {
  for (const types::Transaction& txn : payload.txns) {
    // An id this pool never admitted costs these two lookups and nothing
    // else. An id only in flight is a requeued transaction that committed
    // once already and was batched again; it is remembered like any other.
    const bool queued = known_.erase(txn.id) > 0;
    const bool flying = in_flight_.erase(txn.id) > 0;
    if (queued || flying) remember_committed(txn.id);
  }
}

void Mempool::requeue(const types::Payload& payload) {
  for (const types::Transaction& txn : payload.txns) {
    if (in_flight_.erase(txn.id) > 0) {
      queue_.push_back(txn);
    }
  }
}

WorkloadGenerator::WorkloadGenerator(sim::Scheduler& sched, Mempool& pool,
                                     WorkloadConfig config, Rng rng)
    : sched_(sched), pool_(pool), config_(config), rng_(rng) {}

void WorkloadGenerator::start() {
  if (config_.mean_interarrival > 0) schedule_next();
}

void WorkloadGenerator::schedule_next() {
  const auto wait = static_cast<SimDuration>(
      rng_.exponential(static_cast<double>(config_.mean_interarrival)));
  sched_.schedule_after(std::max<SimDuration>(wait, 1), [this] {
    if (pool_.pending() < config_.target_pool_size) {
      pool_.submit(types::Transaction{
          .id = (id_space_ << 40) | next_id_++,
          .submitted_at = sched_.now(),
          .size_bytes = config_.txn_size_bytes,
      });
    }
    schedule_next();
  });
}

void WorkloadGenerator::top_up() {
  while (pool_.pending() < config_.target_pool_size) {
    const Mempool::Admit admit = pool_.submit(types::Transaction{
        .id = (id_space_ << 40) | next_id_++,
        .submitted_at = sched_.now(),
        .size_bytes = config_.txn_size_bytes,
    });
    // A bounded pool below the target would otherwise spin here forever.
    if (admit == Mempool::Admit::kFull) break;
  }
}

}  // namespace sftbft::mempool
