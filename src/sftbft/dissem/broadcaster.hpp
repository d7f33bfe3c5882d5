// BatchBroadcaster: the active half of the data plane at one replica.
//
// Outbound, off the consensus critical path: a periodic packing timer
// drains the local mempool into content-addressed batches, files them in
// the BatchStore, and pushes them to every peer (BatchPush). Inbound: it
// validates pushed/pulled batches (content address must match — a peer
// cannot serve tampered bytes) and serves BatchRequest pulls from the
// store.
//
// The pull path mirrors core::SyncClient: `want(digests)` registers missing
// content, each pull round asks a small rotating window of peers
// (`(id + 1 + attempts·fanout + k) mod n`), and a watchdog re-requests from
// the next window until everything arrived. Every arrival fires the
// `on_arrival` callback so the consensus layer can retry proposals that
// were parked waiting for payload availability.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_set>

#include "sftbft/common/types.hpp"
#include "sftbft/dissem/batch.hpp"
#include "sftbft/dissem/batch_store.hpp"
#include "sftbft/dissem/config.hpp"
#include "sftbft/mempool/mempool.hpp"
#include "sftbft/net/transport.hpp"

namespace sftbft::dissem {

class BatchBroadcaster {
 public:
  /// Fired whenever at least one previously missing batch arrives.
  using ArrivalCallback = std::function<void()>;

  struct Options {
    /// Never send anything (the Silent fault keeps receiving + storing).
    bool silent = false;
    /// Byzantine BatchWithholder: pack batches and serve pulls, but never
    /// push proactively — peers only get the data if they ask.
    bool withhold_push = false;
  };

  BatchBroadcaster(ReplicaId id, net::Transport& transport,
                   mempool::Mempool& pool, BatchStore& store,
                   DissemConfig config, ArrivalCallback on_arrival,
                   Options options);

  /// Arms the periodic packing timer.
  void start();
  /// Halts packing and pulling; timers already queued fire as no-ops, even
  /// after a later start().
  void stop();
  /// Crash semantics: stops and forgets all volatile state (batch sequence,
  /// pull state, counters), as if freshly constructed.
  void reset();

  /// A push arrives decoded and digest-checked (CheckedPush::of), once per
  /// broadcast envelope; pulled batches are checked here, one by one.
  void on_push(const CheckedPush& push);
  void on_request(const BatchRequest& req);
  void on_response(BatchResponse resp);

  /// Registers digests this replica needs (referenced by a proposal or a
  /// synced block but not locally held) and starts pulling.
  void want(const std::vector<crypto::Sha256Digest>& digests);

  [[nodiscard]] std::uint64_t batches_packed() const {
    return batches_packed_;
  }
  [[nodiscard]] std::uint64_t pull_requests_sent() const {
    return pull_requests_sent_;
  }
  [[nodiscard]] std::size_t missing_count() const { return missing_.size(); }

 private:
  void schedule_pack();
  void pack_and_push();
  void pull_round();
  void ingest(std::shared_ptr<const Batch> batch, bool digest_valid,
              bool& any_new);

  ReplicaId id_;
  std::uint32_t n_;
  net::Transport& transport_;
  mempool::Mempool& pool_;
  BatchStore& store_;
  DissemConfig config_;
  ArrivalCallback on_arrival_;
  Options options_;

  bool running_ = false;
  /// Bumped by stop(); every queued timer carries the epoch it was armed in
  /// and does nothing once it is stale.
  std::uint64_t epoch_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t batches_packed_ = 0;
  std::uint64_t pull_requests_sent_ = 0;

  /// Missing digests in registration order (deterministic pull batches) +
  /// the membership set.
  std::deque<crypto::Sha256Digest> missing_order_;
  std::unordered_set<crypto::Sha256Digest> missing_;
  std::uint32_t pull_attempts_ = 0;
  bool pull_watchdog_armed_ = false;
};

}  // namespace sftbft::dissem
