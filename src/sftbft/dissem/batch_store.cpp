#include "sftbft/dissem/batch_store.hpp"

namespace sftbft::dissem {

bool BatchStore::add(std::shared_ptr<const Batch> batch) {
  const crypto::Sha256Digest digest = batch->digest;
  auto [it, inserted] = entries_.try_emplace(digest, Entry{std::move(batch)});
  if (!inserted) return false;
  if (committed_missing_.erase(digest) > 0) {
    // The ordering committed this digest before the bytes arrived; the
    // late batch goes straight to Committed (it must not be re-proposed).
    it->second.status = Status::kCommitted;
    ++committed_batches_;
    return true;
  }
  order_.push_back(digest);
  return true;
}

const Batch* BatchStore::find(const crypto::Sha256Digest& digest) const {
  const auto it = entries_.find(digest);
  return it == entries_.end() ? nullptr : it->second.batch.get();
}

types::Payload BatchStore::make_payload(std::size_t max_batches, SimTime now,
                                        SimDuration repropose_after) {
  // Committed is final, so committed digests at the front are dead weight
  // that every later scan would skip again.
  while (!order_.empty()) {
    const auto it = entries_.find(order_.front());
    if (it != entries_.end() && it->second.status != Status::kCommitted) break;
    order_.pop_front();
  }
  std::vector<crypto::Sha256Digest> digests;
  for (const crypto::Sha256Digest& digest : order_) {
    if (digests.size() >= max_batches) break;
    const auto it = entries_.find(digest);
    if (it == entries_.end()) continue;
    Entry& entry = it->second;
    const bool stale_reference =
        entry.status == Status::kProposed &&
        now - entry.proposed_at >= repropose_after;
    if (entry.status != Status::kAvailable && !stale_reference) continue;
    entry.status = Status::kProposed;
    entry.proposed_at = now;
    digests.push_back(digest);
  }
  return types::Payload::referencing(std::move(digests));
}

std::vector<crypto::Sha256Digest> BatchStore::missing(
    const types::Payload& payload) const {
  std::vector<crypto::Sha256Digest> out;
  for (const crypto::Sha256Digest& digest : payload.batch_digests) {
    if (!entries_.contains(digest)) out.push_back(digest);
  }
  return out;
}

void BatchStore::observe_reference(const types::Payload& payload,
                                   SimTime now) {
  for (const crypto::Sha256Digest& digest : payload.batch_digests) {
    const auto it = entries_.find(digest);
    if (it == entries_.end()) continue;
    if (it->second.status != Status::kAvailable) continue;
    it->second.status = Status::kProposed;
    it->second.proposed_at = now;
  }
}

void BatchStore::requeue(const types::Payload& payload) {
  for (const crypto::Sha256Digest& digest : payload.batch_digests) {
    const auto it = entries_.find(digest);
    if (it == entries_.end()) continue;
    if (it->second.status == Status::kProposed) {
      it->second.status = Status::kAvailable;
    }
  }
}

BatchStore::Resolved BatchStore::resolve_committed(
    const types::Payload& payload,
    std::vector<crypto::Sha256Digest>& missing_out) {
  Resolved out;
  for (const crypto::Sha256Digest& digest : payload.batch_digests) {
    const auto it = entries_.find(digest);
    if (it == entries_.end()) {
      if (committed_missing_.insert(digest).second) missing_out.push_back(digest);
      continue;
    }
    Entry& entry = it->second;
    if (entry.status == Status::kCommitted) continue;  // fork duplicate
    entry.status = Status::kCommitted;
    ++committed_batches_;
    const std::vector<types::Transaction>& txns = entry.batch->txns;
    out.txn_count += txns.size();
    if (entry.batch->creator == owner_) {
      out.own.txns.insert(out.own.txns.end(), txns.begin(), txns.end());
    }
  }
  return out;
}

std::size_t BatchStore::proposable() const {
  std::size_t count = 0;
  for (const auto& [digest, entry] : entries_) {
    count += entry.status == Status::kAvailable;
  }
  return count;
}

}  // namespace sftbft::dissem
