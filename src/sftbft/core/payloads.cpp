#include "sftbft/core/payloads.hpp"

namespace sftbft::core {

types::Payload Payloads::make(std::size_t max_txns, SimTime now) {
  if (batches_ == nullptr) return pool_->make_batch(max_txns);
  return batches_->make_payload(max_batches_, now, repropose_after_);
}

bool Payloads::available(const types::Payload& payload, SimTime now) {
  if (!references(payload)) return true;
  batches_->observe_reference(payload, now);
  return batches_->missing(payload).empty();
}

void Payloads::fetch(const types::Payload& payload) {
  if (!references(payload)) return;
  const std::vector<crypto::Sha256Digest> missing = batches_->missing(payload);
  if (!missing.empty() && pull_) pull_(missing);
}

void Payloads::requeue(const types::Payload& payload) {
  if (references(payload)) {
    batches_->requeue(payload);
  } else {
    pool_->requeue(payload);
  }
}

std::uint64_t Payloads::commit(const types::Payload& payload) {
  if (!references(payload)) {
    pool_->mark_committed(payload);
    return payload.txns.size();
  }
  std::vector<crypto::Sha256Digest> missing;
  const dissem::BatchStore::Resolved resolved =
      batches_->resolve_committed(payload, missing);
  if (!missing.empty() && pull_) pull_(missing);
  pool_->mark_committed(resolved.own);
  return resolved.txn_count;
}

}  // namespace sftbft::core
