// The commit-chain walk (Sec. 2's "commit a block and all its ancestors",
// strengthened by the Sec.-3 strong commit rules) and its side effects —
// ledger append, mempool accounting, durable commit records, commit
// notifications, snapshot cadence — in one place. Every consensus core
// (chained or lock-step) used to carry a verbatim copy of this loop; they
// now share this one.
#pragma once

#include <functional>
#include <vector>

#include "sftbft/chain/block_tree.hpp"
#include "sftbft/chain/ledger.hpp"
#include "sftbft/common/types.hpp"
#include "sftbft/dissem/batch_store.hpp"
#include "sftbft/mempool/mempool.hpp"
#include "sftbft/sim/scheduler.hpp"
#include "sftbft/storage/replica_store.hpp"

namespace sftbft::core {

class Committer {
 public:
  /// Commit notification: (block, strength, now) — fired once per strength
  /// level first reached per block, ancestors included.
  using OnCommit =
      std::function<void(const types::Block&, std::uint32_t, SimTime)>;

  /// All references must outlive the committer. `store` may be null (no
  /// persistence); `snapshot_hook` (may be empty) runs after each commit
  /// walk so the owning core can write its protocol-specific snapshot
  /// envelope on the store's cadence.
  Committer(const chain::BlockTree& tree, chain::Ledger& ledger,
            mempool::Mempool& pool, sim::Scheduler& sched)
      : tree_(&tree), ledger_(&ledger), pool_(&pool), sched_(&sched) {}

  void set_store(storage::ReplicaStore* store) { store_ = store; }
  void set_on_commit(OnCommit hook) { on_commit_ = std::move(hook); }
  void set_snapshot_hook(std::function<void()> hook) {
    snapshot_hook_ = std::move(hook);
  }

  /// Dissemination mode: digest-referencing payloads are resolved against
  /// `batches` before the ledger append, so the ledger holds every committed
  /// transaction. The mempool hears only about the batches this replica
  /// packed: a transaction enters exactly one replica's mempool and leaves
  /// it in exactly one batch, so no other batch can touch it (inline
  /// payloads reach the mempool whole). `pull` (may be empty) is invoked
  /// with any digests whose batches have not arrived yet — possible only on
  /// the block-sync path, since the vote-availability gate guarantees 2f+1
  /// voters held the data; the store files those batches as committed when
  /// the pull completes.
  void set_batch_store(
      dissem::BatchStore* batches,
      std::function<void(const std::vector<crypto::Sha256Digest>&)> pull) {
    batch_store_ = batches;
    pull_batches_ = std::move(pull);
  }

  /// Commits `head` and all its ancestors at `strength` (strong commit
  /// rule: "x-strong commits a block B_k and all its ancestors"). Stops as
  /// soon as a block already has the strength — deeper ancestors then do
  /// too. Ledger entries are WAL'd when a store is wired, and the snapshot
  /// hook runs once afterwards.
  void commit_chain(const types::Block& head, std::uint32_t strength) {
    for (const types::Block* block = &head;
         block != nullptr && block->height > 0;
         block = tree_->parent_of(block->id)) {
      // Digest payloads materialize to their transactions exactly once (at
      // first commit): the store dedups by digest, so a batch referenced by
      // competing forks counts toward exactly one ledger entry.
      const types::Block* target = block;
      const types::Payload* to_pool = &block->payload;
      types::Block materialized;
      dissem::BatchStore::Resolved resolved;
      if (batch_store_ && block->payload.is_digests() &&
          !ledger_->is_committed(block->height)) {
        std::vector<crypto::Sha256Digest> missing;
        resolved = batch_store_->resolve_committed(block->payload, missing);
        if (!missing.empty() && pull_batches_) pull_batches_(missing);
        materialized = *block;
        materialized.payload = types::Payload{};
        materialized.payload.txns = std::move(resolved.txns);
        target = &materialized;
        to_pool = &resolved.own;
      }
      const auto result = ledger_->commit(*target, strength, sched_->now());
      if (result == chain::Ledger::CommitResult::NoChange) break;
      if (result == chain::Ledger::CommitResult::New) {
        pool_->mark_committed(*to_pool);
      }
      if (store_) store_->record_commit(ledger_->at(block->height));
      if (on_commit_) on_commit_(*block, strength, sched_->now());
    }
    if (snapshot_hook_) snapshot_hook_();
  }

 private:
  const chain::BlockTree* tree_;
  chain::Ledger* ledger_;
  mempool::Mempool* pool_;
  sim::Scheduler* sched_;
  storage::ReplicaStore* store_ = nullptr;
  dissem::BatchStore* batch_store_ = nullptr;
  std::function<void(const std::vector<crypto::Sha256Digest>&)> pull_batches_;
  OnCommit on_commit_;
  std::function<void()> snapshot_hook_;
};

}  // namespace sftbft::core
