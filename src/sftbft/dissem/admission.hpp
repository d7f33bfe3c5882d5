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
