// Client admission: how transactions enter a replica when dissemination is
// on.
//
// The AdmissionFrontend is the gate every submission passes: per-client
// dedup (a retrying client must not double-spend queue slots), per-client
// token-bucket rate limits, and backpressure from the bounded mempool. The
// bench-only WorkloadGenerator bypasses all of this; the frontend is what a
// real RPC edge would run, so the "millions of submitters" claims are
// exercised against admission control instead of a magic firehose.
//
// ClientSwarm simulates that submitter population: a configurable number of
// distinct clients (disjoint id spaces) submitting through the frontend,
// keeping the mempool saturated for the whole run the way the paper's
// "sufficiently many transactions" setup assumes. Deterministic given its
// Rng fork.
//
// Over-budget refill ticks. Under a rate limit every client's one-second
// window starts on the same refill tick, so most ticks find every client's
// budget spent: the round-robin loop would submit once per client, collect
// `clients` kRateLimited outcomes and stop. ClientSwarm::top_up replaces
// such a tick with one bulk step when AdmissionFrontend::all_rate_limited
// holds: it burns one sequence number per client and records the
// `clients` rejections with reject_rate_limited() (stats, one counter add,
// one backlog gauge, and one reject_rate_limit trace instant per client
// when recording). That is exactly what the loop does, because
//  * classify() tests the rate limit before the mempool, so a limited
//    submission never reaches the pool and the backlog does not move;
//  * the dedup ring, tested first, cannot hit: a swarm id
//    (space<<40 | client<<26 | seq) is fresh while seq < 2^26, and the
//    swarm is the frontend's only submitter;
//  * a spent budget stays spent until its window ends, so the answer of
//    one scan holds until the earliest window end (cached, so a run of
//    over-budget ticks costs O(1) each after the first).
// submit() itself is unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "sftbft/common/rng.hpp"
#include "sftbft/common/types.hpp"
#include "sftbft/dissem/config.hpp"
#include "sftbft/mempool/mempool.hpp"
#include "sftbft/sim/scheduler.hpp"

namespace sftbft::dissem {

class AdmissionFrontend {
 public:
  enum class Outcome : std::uint8_t {
    kAdmitted,
    kDuplicate,     ///< seen in the client's dedup window or the mempool
    kRateLimited,   ///< client exceeded its per-second budget
    kBackpressure,  ///< mempool at capacity; retry later
  };

  struct Stats {
    std::uint64_t admitted = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t rate_limited = 0;
    std::uint64_t backpressured = 0;
  };

  AdmissionFrontend(mempool::Mempool& pool, DissemConfig config);

  /// One client submission at simulation time `now`. `client` is a
  /// ClientSwarm index, below `config.clients` (at least one client, as in
  /// the swarm); any other id throws std::out_of_range. The frontend feeds
  /// only its own replica's mempool, so every transaction admitted here
  /// belongs to this replica's id space.
  Outcome submit(std::uint64_t client, types::Transaction txn, SimTime now);

  /// True when every client's per-second budget is spent at `now`, so
  /// every submission at `now` that misses the dedup ring is kRateLimited;
  /// always false without a rate limit. Rescans the clients only once `now`
  /// reaches the earliest window end of the last scan that held.
  [[nodiscard]] bool all_rate_limited(SimTime now);

  /// Records `count` kRateLimited outcomes at `now` exactly as `count`
  /// submit() calls ending that way would. Only for submissions that
  /// all_rate_limited(now) guarantees and whose ids miss the dedup ring.
  void reject_rate_limited(std::uint32_t count, SimTime now);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Current mempool backlog (the swarm's saturation signal).
  [[nodiscard]] std::size_t backlog() const { return pool_.pending(); }

 private:
  /// The decision logic; submit() wraps it with observability reporting.
  Outcome classify(std::uint64_t client, types::Transaction txn, SimTime now);

  /// One client's admission record. Its dedup window is the client's
  /// slice of `recent_`: a ring of the last client_dedup_window admitted
  /// ids, scanned linearly (the window is a few dozen ids).
  struct ClientState {
    /// Token-bucket window (one second, client_rate_limit tokens).
    SimTime window_start = 0;
    std::uint32_t window_used = 0;
    /// How many of this client's submissions were admitted. The ring
    /// holds the last min(admitted, client_dedup_window) of their ids; the
    /// next one goes to slot admitted % client_dedup_window.
    std::uint64_t admitted = 0;
  };

  mempool::Mempool& pool_;
  DissemConfig config_;
  Stats stats_;
  /// Indexed by client (the ClientSwarm index).
  std::vector<ClientState> clients_;
  /// clients_.size() rings of client_dedup_window ids, back to back.
  std::vector<std::uint64_t> recent_;
  /// Every client stays over budget while now < this (all_rate_limited's
  /// cache; 0 until a scan finds every budget spent).
  SimTime limited_until_ = 0;
};

/// The simulated submitter population behind one replica's frontend.
class ClientSwarm {
 public:
  ClientSwarm(sim::Scheduler& sched, AdmissionFrontend& frontend,
              mempool::WorkloadConfig workload, DissemConfig config, Rng rng);

  /// Disjoint per-replica id space (call with the replica id, like
  /// WorkloadGenerator::set_id_space).
  void set_id_space(std::uint64_t space) { id_space_ = space; }

  /// Synchronously refills the backlog to the workload target.
  void top_up();

  /// Keeps the backlog topped up for the whole run (periodic refill — the
  /// data plane continuously drains the pool into batches, so a one-shot
  /// top_up would starve it).
  void start();
  /// Halts the refills; a refill already queued fires as a no-op, even
  /// after a later start().
  void stop() {
    running_ = false;
    ++epoch_;
  }

  [[nodiscard]] std::uint64_t submitted() const { return submitted_; }

 private:
  /// Sequence numbers below this keep swarm ids fresh (the seq field).
  static constexpr std::uint32_t kFreshSeqs = std::uint32_t{1} << 26;

  void schedule_refill();

  sim::Scheduler& sched_;
  AdmissionFrontend& frontend_;
  mempool::WorkloadConfig workload_;
  DissemConfig config_;
  Rng rng_;
  std::uint64_t id_space_ = 0;
  std::uint32_t next_client_ = 0;
  /// Per-client submission counters (ids stay unique per client).
  std::vector<std::uint32_t> client_seq_;
  std::uint64_t submitted_ = 0;
  bool running_ = false;
  /// Bumped by stop(); a queued refill from an older epoch does nothing.
  std::uint64_t epoch_ = 0;
};

}  // namespace sftbft::dissem
