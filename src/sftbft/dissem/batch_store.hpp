// BatchStore: one replica's content-addressed view of the data plane.
//
// Every batch the replica packed itself or received (push or pull) lives
// here, keyed by digest, with a proposable-state machine per batch:
//
//   Available --(referenced by a proposal)--> Proposed --(commit)--> Committed
//        ^                                        |
//        +----(repropose_after with no commit)----+
//
// Leaders draw digest-mode payloads from the Available set (oldest first,
// any creator — a leader proposes everyone's batches, which is exactly how
// the data plane multiplies throughput by n). Duplicate references across
// forks are harmless: commit-time resolution dedups by digest, so a batch's
// transactions count exactly once no matter how many competing blocks named
// it.
//
// A transaction enters exactly one replica's mempool (its creator's clients
// submit it there) and leaves that mempool in exactly one batch, which that
// replica packs. So at commit only the owner's batches carry transactions
// its mempool knows: resolve_committed gives the ledger a transaction count
// (no copies) and hands back only the owner's transactions, and no other
// replica's mempool ever hears about them. core::Payloads is the store's
// one consensus-side user (make, gate, requeue, commit).
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sftbft/common/types.hpp"
#include "sftbft/dissem/batch.hpp"
#include "sftbft/types/transaction.hpp"

namespace sftbft::dissem {

class BatchStore {
 public:
  enum class Status : std::uint8_t { kAvailable, kProposed, kCommitted };

  /// `owner` is the replica whose data plane this store serves: batches
  /// whose creator is `owner` are the ones it packed from its own mempool.
  explicit BatchStore(ReplicaId owner) : owner_(owner) {}

  /// Adds a validated batch. Returns true if new. A batch whose digest was
  /// already committed (data arrived after the ordering did — the pull
  /// fallback on the sync path) is stored directly as Committed.
  bool add(Batch batch);

  [[nodiscard]] bool has(const crypto::Sha256Digest& digest) const {
    return entries_.contains(digest);
  }
  [[nodiscard]] const Batch* find(const crypto::Sha256Digest& digest) const;

  /// Builds a digest-mode payload from proposable batches, oldest first:
  /// Available ones, plus Proposed ones whose reference is older than
  /// `repropose_after` (their block evidently never certified). Marks every
  /// referenced batch Proposed as of `now`.
  [[nodiscard]] types::Payload make_payload(std::size_t max_batches,
                                            SimTime now,
                                            SimDuration repropose_after);

  /// Digests referenced by `payload` whose batches this store is missing
  /// (empty = the payload is fully available locally).
  [[nodiscard]] std::vector<crypto::Sha256Digest> missing(
      const types::Payload& payload) const;

  /// Records that a (validated, vote-worthy) proposal referenced these
  /// digests: present Available batches move to Proposed so this replica
  /// does not re-propose digests already in flight under another leader.
  void observe_reference(const types::Payload& payload, SimTime now);

  /// Returns a proposed payload's batches to Available (the proposing round
  /// timed out before certification).
  void requeue(const types::Payload& payload);

  /// What one commit-time resolution yields.
  struct Resolved {
    /// Transactions in the newly committed batches (the ledger's count).
    std::uint64_t txn_count = 0;
    /// The transactions of those batches whose creator is the owner: the
    /// only ones that ever sat in the owner's mempool.
    types::Payload own;
  };

  /// Commit-time resolution: counts the referenced transactions, skipping
  /// batches already committed (exactly-once counting across forks) and
  /// marking the rest Committed. Digests with no local batch (possible
  /// only on the block-sync path — the vote-availability gate
  /// guarantees 2f + 1 voters held the data) are appended to `missing_out`
  /// and remembered, so the batch is filed straight as Committed when the
  /// pull completes.
  [[nodiscard]] Resolved resolve_committed(
      const types::Payload& payload,
      std::vector<crypto::Sha256Digest>& missing_out);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t proposable() const;
  [[nodiscard]] std::uint64_t committed_batches() const {
    return committed_batches_;
  }

 private:
  struct Entry {
    Batch batch;
    Status status = Status::kAvailable;
    SimTime proposed_at = 0;
  };

  ReplicaId owner_;
  std::unordered_map<crypto::Sha256Digest, Entry> entries_;
  /// Proposable scan order (arrival order; lazily pruned).
  std::deque<crypto::Sha256Digest> order_;
  /// Committed before the data arrived (sync path); add() consults this.
  std::unordered_set<crypto::Sha256Digest> committed_missing_;
  std::uint64_t committed_batches_ = 0;
};

}  // namespace sftbft::dissem
