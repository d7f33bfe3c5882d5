#include "sftbft/mempool/mempool.hpp"

#include <bit>
#include <utility>

namespace sftbft::mempool {

std::size_t Mempool::home(std::uint64_t id) const {
  return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ULL) >> shift_);
}

std::size_t Mempool::find(std::uint64_t id) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(id);
  while (slots_[i].flags != 0 && slots_[i].id != id) i = (i + 1) & mask;
  return i;
}

std::uint8_t Mempool::flags_of(std::uint64_t id) const {
  return slots_.empty() ? 0 : slots_[find(id)].flags;
}

void Mempool::grow() {
  const std::size_t size = slots_.empty() ? 16 : 2 * slots_.size();
  const std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(size));
  shift_ = 64 - std::countr_zero(size);
  for (const Slot& slot : old) {
    if (slot.flags != 0) slots_[find(slot.id)] = slot;
  }
}

std::uint8_t Mempool::set_flags(std::uint64_t id, std::uint8_t set) {
  // Keep the table at most half full.
  if (2 * (used_ + 1) > slots_.size()) grow();
  Slot& slot = slots_[find(id)];
  const std::uint8_t old = slot.flags;
  if (old == 0) {
    slot.id = id;
    ++used_;
  }
  slot.flags = static_cast<std::uint8_t>(old | set);
  if ((set & kInFlight) != 0 && (old & kInFlight) == 0) ++in_flight_;
  return old;
}

std::uint8_t Mempool::clear_flags(std::uint64_t id, std::uint8_t clear) {
  if (slots_.empty()) return 0;
  std::size_t hole = find(id);
  const std::uint8_t old = slots_[hole].flags;
  if ((clear & kInFlight) != 0 && (old & kInFlight) != 0) --in_flight_;
  slots_[hole].flags = static_cast<std::uint8_t>(old & ~clear);
  if (old == 0 || slots_[hole].flags != 0) return old;
  // Backward-shift deletion: pull later members of the probe run into the
  // hole when the hole lies between their home slot and where they sit.
  --used_;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t next = (hole + 1) & mask; slots_[next].flags != 0;
       next = (next + 1) & mask) {
    const std::size_t from_home = (next - home(slots_[next].id)) & mask;
    if (from_home >= ((next - hole) & mask)) {
      slots_[hole] = slots_[next];
      slots_[next].flags = 0;
      hole = next;
    }
  }
  return old;
}

Mempool::Admit Mempool::submit(types::Transaction txn) {
  if ((flags_of(txn.id) & (kKnown | kCommitted)) != 0) {
    return Admit::kDuplicate;
  }
  if (capacity_ != 0 && queue_.size() >= capacity_) return Admit::kFull;
  set_flags(txn.id, kKnown);
  queue_.push_back(std::move(txn));
  return Admit::kAccepted;
}

types::Payload Mempool::make_batch(std::size_t max_txns) {
  types::Payload payload;
  payload.txns.reserve(std::min(max_txns, queue_.size()));
  while (payload.txns.size() < max_txns && !queue_.empty()) {
    types::Transaction txn = std::move(queue_.front());
    queue_.pop_front();
    if ((set_flags(txn.id, kInFlight) & kInFlight) != 0) continue;
    payload.txns.push_back(std::move(txn));
  }
  return payload;
}

void Mempool::mark_committed(const types::Payload& payload) {
  if (slots_.empty()) return;
  for (const types::Transaction& txn : payload.txns) {
    // An id this pool never admitted costs one probe and nothing else. An
    // id only in flight is a requeued transaction that committed once
    // already and was batched again; it is remembered like any other.
    Slot& slot = slots_[find(txn.id)];
    if ((slot.flags & (kKnown | kInFlight)) == 0) continue;
    if ((slot.flags & kInFlight) != 0) --in_flight_;
    const bool remembered = (slot.flags & kCommitted) != 0;
    slot.flags = kCommitted;
    if (remembered) continue;
    committed_order_.push_back(txn.id);
    while (committed_order_.size() > kCommittedMemory) {
      clear_flags(committed_order_.front(), kCommitted);
      committed_order_.pop_front();
    }
  }
}

void Mempool::requeue(const types::Payload& payload) {
  for (const types::Transaction& txn : payload.txns) {
    if ((clear_flags(txn.id, kInFlight) & kInFlight) != 0) {
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
