// Payloads: the one place that knows whether blocks carry transactions
// inline (drawn from the Mempool) or name dissemination batches by digest
// (drawn from the BatchStore). The SFT bookkeeping does not care how
// payloads travel, so the consensus cores and the Committer make, gate,
// fetch, requeue and commit payloads only through this class. The Mempool
// and the BatchStore must outlive it; the host resets them in place.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sftbft/common/types.hpp"
#include "sftbft/dissem/batch_store.hpp"
#include "sftbft/dissem/config.hpp"
#include "sftbft/mempool/mempool.hpp"
#include "sftbft/types/transaction.hpp"

namespace sftbft::core {

class Payloads {
 public:
  /// Fetches batches that are referenced but not held locally.
  using Pull = std::function<void(const std::vector<crypto::Sha256Digest>&)>;

  /// Inline payloads drawn from `pool`.
  explicit Payloads(mempool::Mempool& pool) : pool_(&pool) {}

  /// Digest payloads drawn from `batches` under the proposal limits of
  /// `config`; `pull` (may be empty) fetches missing batches.
  Payloads(mempool::Mempool& pool, dissem::BatchStore& batches,
           const dissem::DissemConfig& config, Pull pull)
      : pool_(&pool), batches_(&batches),
        max_batches_(config.max_batches_per_proposal),
        repropose_after_(config.repropose_after), pull_(std::move(pull)) {}

  /// True in dissemination mode (blocks reference batches by digest).
  [[nodiscard]] bool digests() const { return batches_ != nullptr; }

  /// Leader side: up to `max_txns` pending transactions, or up to the
  /// batch limit of proposable batches (marked Proposed as of `now`).
  [[nodiscard]] types::Payload make(std::size_t max_txns, SimTime now);

  /// Vote-availability gate: are all referenced batches held locally? Held
  /// ones go Proposed as of `now` either way (another leader claimed them).
  /// The SFT guarantee that 2f+1 voters hold the data rests on this check.
  [[nodiscard]] bool available(const types::Payload& payload, SimTime now);

  /// Pulls the referenced batches this replica is missing (no-op inline).
  void fetch(const types::Payload& payload);

  /// The proposing round timed out uncertified: the payload's transactions
  /// (or batches) become proposable again.
  void requeue(const types::Payload& payload);

  /// First commit of a block carrying `payload`: settles the Mempool and
  /// returns the block's transaction count. A batch counts once across
  /// forks; batches never received (block-sync path) are pulled and filed
  /// as committed on arrival.
  std::uint64_t commit(const types::Payload& payload);

  /// Transactions waiting in the Mempool.
  [[nodiscard]] std::size_t pending() const { return pool_->pending(); }

 private:
  [[nodiscard]] bool references(const types::Payload& payload) const {
    return batches_ != nullptr && payload.is_digests();
  }

  mempool::Mempool* pool_;
  dissem::BatchStore* batches_ = nullptr;  // null = inline payloads
  std::size_t max_batches_ = 0;
  SimDuration repropose_after_ = 0;
  Pull pull_;
};

}  // namespace sftbft::core
