// Deterministic discrete-event scheduler.
//
// The whole experiment — network delivery, pacemaker timers, client arrivals
// — runs as callbacks on one scheduler. Events fire in (time, insertion
// sequence) order, so two runs with the same seed produce byte-identical
// traces. This determinism is load-bearing: the liveness tests assert the
// paper's exact theorem bounds (e.g. "(2f−c)-strong committed within n + 2
// rounds", Theorem 2).
//
// Callbacks live in a slot arena: a vector of {callback, generation} slots
// with a free list, so scheduling, cancelling and dispatching are array
// work. A TimerId packs `generation << 32 | (slot + 1)` (never
// kInvalidTimer). Freeing a slot bumps its generation, so the id of a fired
// or cancelled event stops matching and cancel() / dispatch() treat it as
// gone even after the slot holds a new event; the heap entry of a cancelled
// event is skipped when popped. The generation is 32 bits: a stale id could
// alias only after 2^32 reuses of its slot while it was still held, far
// beyond any run. Event order is the (time, seq) heap alone, so the arena
// cannot reorder events.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
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
  [[nodiscard]] std::size_t pending() const { return live_; }

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

  struct Slot {
    Callback cb;
    std::uint32_t gen = 0;  ///< bumped each time the slot is freed
  };

  /// Runs `ev` and advances the clock to it, unless it was cancelled (its
  /// id no longer matches its slot): then returns false and leaves the
  /// clock alone.
  bool dispatch(const Event& ev);

  /// The arena index an id names (kInvalidTimer maps past any slot).
  static std::uint32_t slot_of(TimerId id) {
    return static_cast<std::uint32_t>(id) - 1;
  }
  /// True iff `id`'s event is scheduled and not yet fired or cancelled.
  [[nodiscard]] bool live(TimerId id) const;
  /// Empties a live slot and returns it to the free list.
  void release(std::uint32_t slot);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventAfter> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  ///< freed slot indices, reused LIFO
  std::size_t live_ = 0;
};

}  // namespace sftbft::sim
