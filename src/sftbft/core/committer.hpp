// The commit-chain walk (Sec. 2's "commit a block and all its ancestors",
// strengthened by the Sec.-3 strong commit rules) and its side effects —
// ledger append, payload accounting, durable commit records, commit
// metrics and notifications, snapshot cadence — in one place, shared by
// every consensus core (chained or lock-step). How a payload is counted and
// dropped from the mempool is core::Payloads' business, not the walk's.
#pragma once

#include <functional>

#include "sftbft/chain/block_tree.hpp"
#include "sftbft/chain/ledger.hpp"
#include "sftbft/common/types.hpp"
#include "sftbft/core/payloads.hpp"
#include "sftbft/obs/observer.hpp"
#include "sftbft/sim/scheduler.hpp"
#include "sftbft/storage/replica_store.hpp"

namespace sftbft::core {

class Committer {
 public:
  /// Commit notification: (block, strength, now) — fired once per strength
  /// level first reached per block, ancestors included.
  using OnCommit =
      std::function<void(const types::Block&, std::uint32_t, SimTime)>;

  /// All references must outlive the committer. `observer` (may be null)
  /// receives replica `id`'s commit metrics and spans; strengths up to `f`
  /// count as regular commits, higher ones as strong commits.
  Committer(const chain::BlockTree& tree, chain::Ledger& ledger,
            Payloads& payloads, sim::Scheduler& sched,
            obs::Observer* observer, ReplicaId id, std::uint32_t f)
      : tree_(&tree), ledger_(&ledger), payloads_(&payloads), sched_(&sched),
        observer_(observer), id_(id), f_(f) {}

  /// `store` may be null (no persistence).
  void set_store(storage::ReplicaStore* store) { store_ = store; }
  /// `hook` may be empty.
  void set_on_commit(OnCommit hook) { on_commit_ = std::move(hook); }
  /// `hook` (may be empty) runs after each commit walk so the owning core
  /// can write its protocol-specific snapshot envelope on the store's
  /// cadence.
  void set_snapshot_hook(std::function<void()> hook) {
    snapshot_hook_ = std::move(hook);
  }

  /// Commits `head` and all its ancestors at `strength` (strong commit
  /// rule: "x-strong commits a block B_k and all its ancestors"). Stops as
  /// soon as a block already has the strength — deeper ancestors then do
  /// too. A block's payload is settled once, at its first commit. Ledger
  /// entries are WAL'd when a store is wired, and the snapshot hook runs
  /// once afterwards.
  void commit_chain(const types::Block& head, std::uint32_t strength) {
    for (const types::Block* block = &head;
         block != nullptr && block->height > 0;
         block = tree_->parent_of(block->id)) {
      const std::uint64_t txn_count =
          ledger_->is_committed(block->height)
              ? 0
              : payloads_->commit(block->payload);
      const auto result =
          ledger_->commit(*block, strength, sched_->now(), txn_count);
      if (result == chain::Ledger::CommitResult::NoChange) break;
      if (store_) store_->record_commit(ledger_->at(block->height));
      notify(*block, strength, sched_->now());
    }
    if (snapshot_hook_) snapshot_hook_();
  }

 private:
  void notify(const types::Block& block, std::uint32_t strength, SimTime now) {
    if (observer_ != nullptr) {
      const SimDuration latency = now - block.created_at;
      if (strength <= f_) {
        observer_->count(id_, obs::Counter::kCommits);
        observer_->observe(id_, obs::Hist::kCommitLatencyUs, latency);
      } else {
        observer_->count(id_, obs::Counter::kStrongCommits);
        observer_->observe(id_, obs::Hist::kStrongCommitLatencyUs, latency);
      }
      if (observer_->recording()) {
        observer_->emit(obs::span_event(
            "block", strength <= f_ ? "committed" : "strong_commit", id_,
            block.height, block.created_at, now, {"round", block.round},
            {"strength", strength}));
      }
    }
    if (on_commit_) on_commit_(block, strength, now);
  }

  const chain::BlockTree* tree_;
  chain::Ledger* ledger_;
  Payloads* payloads_;
  sim::Scheduler* sched_;
  obs::Observer* observer_;
  ReplicaId id_;
  std::uint32_t f_;
  storage::ReplicaStore* store_ = nullptr;
  OnCommit on_commit_;
  std::function<void()> snapshot_hook_;
};

}  // namespace sftbft::core
