// Deterministic discrete-event scheduler.
//
// The whole experiment — network delivery, pacemaker timers, client arrivals
// — runs as callbacks on one scheduler. Events fire in (time, insertion
// sequence) order, so two runs with the same seed produce byte-identical
// traces. This determinism is load-bearing: the liveness tests assert the
// paper's exact theorem bounds (e.g. "(2f−c)-strong committed within n + 2
// rounds", Theorem 2).
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "sftbft/common/types.hpp"

namespace sftbft::sim {

/// Identifies a scheduled event so it can be cancelled (timer semantics).
using TimerId = std::uint64_t;

inline constexpr TimerId kInvalidTimer = 0;

class Scheduler {
 public:
  using Callback = std::function<void()>;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (>= now). Returns a cancellable id.
  TimerId schedule_at(SimTime t, Callback cb);

  /// Schedules `cb` after `delay` from now.
  TimerId schedule_after(SimDuration delay, Callback cb);

  /// Cancels a pending event; a no-op if it already fired or was cancelled.
  void cancel(TimerId id);

  /// Runs the next event, if any. Returns false when the queue is empty.
  bool run_one();

  /// Runs events until simulated time reaches `deadline` (events at exactly
  /// `deadline` are executed). Time advances to `deadline` even if the queue
  /// drains earlier.
  void run_until(SimTime deadline);

  /// Runs for `duration` of simulated time from now.
  void run_for(SimDuration duration);

  /// Runs until no events remain or `max_events` were processed.
  void run_until_idle(std::uint64_t max_events = UINT64_MAX);

  /// Number of events executed since construction (a cheap progress proxy).
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

  /// Number of live (scheduled, not yet fired or cancelled) events.
  [[nodiscard]] std::size_t pending() const { return callbacks_.size(); }

 private:
  struct Event {
    SimTime time = 0;
    std::uint64_t seq = 0;  // tie-break: FIFO among equal times
    TimerId id = kInvalidTimer;
  };
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Runs `ev` and advances the clock to it, unless it was cancelled (its
  /// callback is gone): then returns false and leaves the clock alone.
  bool dispatch(const Event& ev);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventAfter> heap_;
  /// Live events only: cancel() erases the entry, and the heap entry is
  /// skipped when popped.
  std::unordered_map<TimerId, Callback> callbacks_;
};

}  // namespace sftbft::sim
