#include "sftbft/dissem/broadcaster.hpp"

#include "sftbft/obs/observer.hpp"
#include "sftbft/sim/scheduler.hpp"

namespace sftbft::dissem {

using net::Envelope;
using net::WireType;

BatchBroadcaster::BatchBroadcaster(ReplicaId id, net::Transport& transport,
                                   mempool::Mempool& pool, BatchStore& store,
                                   DissemConfig config,
                                   ArrivalCallback on_arrival, Options options)
    : id_(id),
      n_(transport.size()),
      transport_(transport),
      pool_(pool),
      store_(store),
      config_(config),
      on_arrival_(std::move(on_arrival)),
      options_(options) {}

void BatchBroadcaster::start() {
  if (running_) return;
  running_ = true;
  // Pack immediately (the mempool is topped up before start), then settle
  // into the periodic cadence.
  pack_and_push();
  schedule_pack();
}

void BatchBroadcaster::stop() {
  running_ = false;
  // Orphan the queued pack timer and pull watchdog.
  ++epoch_;
  pull_watchdog_armed_ = false;
}

void BatchBroadcaster::reset() {
  stop();
  seq_ = 0;
  batches_packed_ = 0;
  pull_requests_sent_ = 0;
  missing_order_.clear();
  missing_.clear();
  pull_attempts_ = 0;
}

void BatchBroadcaster::schedule_pack() {
  transport_.scheduler().schedule_after(config_.batch_interval,
                                        [this, epoch = epoch_] {
    if (epoch != epoch_) return;
    pack_and_push();
    schedule_pack();
  });
}

void BatchBroadcaster::pack_and_push() {
  const types::Payload drained = pool_.make_batch(config_.batch_max_txns);
  if (drained.txns.empty()) return;
  Batch batch;
  batch.creator = id_;
  batch.seq = seq_++;
  batch.txns = drained.txns;
  batch.seal();
  store_.add(std::make_shared<const Batch>(batch));
  ++batches_packed_;
  if (obs::Observer* obs = config_.observer) {
    obs->count(id_, obs::Counter::kBatchesPacked);
    if (obs->recording()) {
      obs->emit(obs::instant_event(
          "dissem", "batch_packed", id_, transport_.scheduler().now(),
          {"seq", batch.seq}, {"txns", batch.txns.size()}));
    }
    if (obs->tracing()) {
      obs->emit_trace_only(obs::counter_event(
          "dissem", "batch_store", id_, transport_.scheduler().now(),
          {"batches", static_cast<std::uint64_t>(store_.size())}));
    }
  }
  if (options_.silent || options_.withhold_push) return;
  transport_.broadcast(Envelope::pack(WireType::kBatchPush, id_,
                                      BatchPush{std::move(batch)}),
                       /*include_self=*/false);
}

void BatchBroadcaster::ingest(std::shared_ptr<const Batch> batch,
                              bool digest_valid, bool& any_new) {
  // The content address is the only trust anchor on the data plane: a batch
  // whose digest does not match its bytes is discarded no matter who sent
  // it.
  if (!digest_valid) return;
  const crypto::Sha256Digest digest = batch->digest;
  if (!store_.add(std::move(batch))) return;
  const bool was_missing = missing_.erase(digest) > 0;
  any_new = true;
  if (obs::Observer* obs = config_.observer; obs != nullptr) {
    if (was_missing) {
      obs->count(id_, obs::Counter::kBatchesResolved);
      if (obs->recording()) {
        obs->emit(obs::instant_event("dissem", "batch_resolved", id_,
                                     transport_.scheduler().now(),
                                     {"still_missing", missing_.size()}));
      }
    }
    if (obs->tracing()) {
      obs->emit_trace_only(obs::counter_event(
          "dissem", "batch_store", id_, transport_.scheduler().now(),
          {"batches", static_cast<std::uint64_t>(store_.size())}));
    }
  }
}

void BatchBroadcaster::on_push(const CheckedPush& push) {
  bool any_new = false;
  ingest(push.batch, push.digest_valid, any_new);
  if (any_new && on_arrival_) on_arrival_();
}

void BatchBroadcaster::on_request(const BatchRequest& req) {
  if (options_.silent) return;
  if (req.requester >= n_ || req.requester == id_) return;
  BatchResponse resp;
  for (const crypto::Sha256Digest& digest : req.digests) {
    if (resp.batches.size() >= config_.pull_max_digests) break;
    const Batch* batch = store_.find(digest);
    if (batch != nullptr) resp.batches.push_back(*batch);
  }
  if (resp.batches.empty()) return;
  transport_.send(req.requester,
                  Envelope::pack(WireType::kBatchResponse, id_, resp));
}

void BatchBroadcaster::on_response(BatchResponse resp) {
  bool any_new = false;
  for (Batch& batch : resp.batches) {
    const bool valid = batch.digest_is_valid();
    ingest(std::make_shared<const Batch>(std::move(batch)), valid, any_new);
  }
  if (any_new && on_arrival_) on_arrival_();
}

void BatchBroadcaster::want(
    const std::vector<crypto::Sha256Digest>& digests) {
  bool added = false;
  for (const crypto::Sha256Digest& digest : digests) {
    if (store_.has(digest)) continue;
    if (!missing_.insert(digest).second) continue;
    missing_order_.push_back(digest);
    added = true;
  }
  if (added && !pull_watchdog_armed_) pull_round();
}

void BatchBroadcaster::pull_round() {
  // Drop already-arrived digests from the scan order.
  while (!missing_order_.empty() && !missing_.contains(missing_order_.front())) {
    missing_order_.pop_front();
  }
  if (missing_order_.empty()) {
    pull_attempts_ = 0;
    return;
  }

  BatchRequest req;
  req.requester = id_;
  for (const crypto::Sha256Digest& digest : missing_order_) {
    if (req.digests.size() >= config_.pull_max_digests) break;
    if (missing_.contains(digest)) req.digests.push_back(digest);
  }

  if (!options_.silent && !req.digests.empty()) {
    // Rotating window (core::SyncClient's policy): each retry asks the next
    // `fanout` peers, so a single unresponsive (or withholding) peer cannot
    // stall the pull.
    const std::uint32_t fanout = std::max(1u, config_.pull_fanout);
    for (std::uint32_t k = 0; k < fanout && k + 1 < n_; ++k) {
      const ReplicaId to =
          (id_ + 1 + pull_attempts_ * fanout + k) % n_;
      if (to == id_) continue;
      transport_.send(to, Envelope::pack(WireType::kBatchRequest, id_, req));
      ++pull_requests_sent_;
    }
    ++pull_attempts_;
    if (obs::Observer* obs = config_.observer) {
      obs->count(id_, obs::Counter::kBatchPullRounds);
      if (obs->recording()) {
        obs->emit(obs::instant_event(
            "dissem", "batch_pull", id_, transport_.scheduler().now(),
            {"missing", missing_.size()}, {"attempt", pull_attempts_}));
      }
    }
  }

  pull_watchdog_armed_ = true;
  transport_.scheduler().schedule_after(config_.pull_retry,
                                        [this, epoch = epoch_] {
    if (epoch != epoch_) return;
    pull_watchdog_armed_ = false;
    if (!running_) return;
    if (!missing_.empty()) pull_round();
  });
}

}  // namespace sftbft::dissem
