// Discrete-event scheduler: ordering, FIFO tie-breaking, cancellation,
// bounded runs, callback-slot reuse — the determinism substrate every
// experiment relies on.
#include <gtest/gtest.h>

#include <vector>

#include "sftbft/sim/scheduler.hpp"

namespace sftbft::sim {
namespace {

TEST(Scheduler, FiresInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(300, [&] { order.push_back(3); });
  sched.schedule_at(100, [&] { order.push_back(1); });
  sched.schedule_at(200, [&] { order.push_back(2); });
  sched.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 300);
}

TEST(Scheduler, FifoAmongEqualTimes) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(50, [&order, i] { order.push_back(i); });
  }
  sched.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, ScheduleAfterUsesCurrentTime) {
  Scheduler sched;
  SimTime fired_at = -1;
  sched.schedule_at(100, [&] {
    sched.schedule_after(50, [&] { fired_at = sched.now(); });
  });
  sched.run_until_idle();
  EXPECT_EQ(fired_at, 150);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool fired = false;
  const TimerId id = sched.schedule_at(10, [&] { fired = true; });
  sched.cancel(id);
  sched.run_until_idle();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelledEventNeitherRunsNorMovesTheClock) {
  Scheduler sched;
  bool early_fired = false;
  bool late_fired = false;
  const TimerId early = sched.schedule_at(10, [&] { early_fired = true; });
  const TimerId late = sched.schedule_at(30, [&] { late_fired = true; });
  sched.schedule_at(20, [] {});
  EXPECT_EQ(sched.pending(), 3u);
  sched.cancel(early);
  sched.cancel(early);  // a second cancel changes nothing
  sched.cancel(late);
  EXPECT_EQ(sched.pending(), 1u);

  // The cancelled event at t=10 is skipped without setting the clock; the
  // live event at t=20 runs; the cancelled one at t=30 leaves the clock at 20.
  EXPECT_TRUE(sched.run_one());
  EXPECT_EQ(sched.now(), 20);
  EXPECT_FALSE(sched.run_one());
  EXPECT_EQ(sched.now(), 20);
  EXPECT_FALSE(early_fired);
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_EQ(sched.events_processed(), 1u);
}

TEST(Scheduler, CancelAfterFireIsNoop) {
  Scheduler sched;
  const TimerId id = sched.schedule_at(10, [] {});
  sched.run_until_idle();
  sched.cancel(id);  // must not crash or affect anything
  EXPECT_EQ(sched.events_processed(), 1u);
}

TEST(Scheduler, CancelInvalidIsNoop) {
  Scheduler sched;
  sched.cancel(kInvalidTimer);
  sched.cancel(12345);
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(100, [&] { ++fired; });
  sched.schedule_at(200, [&] { ++fired; });
  sched.schedule_at(301, [&] { ++fired; });
  sched.run_until(300);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sched.now(), 300);  // clock advances even without events
  sched.run_until_idle();
  EXPECT_EQ(fired, 3);
}

TEST(Scheduler, RunUntilExecutesEventsAtDeadline) {
  Scheduler sched;
  bool fired = false;
  sched.schedule_at(300, [&] { fired = true; });
  sched.run_until(300);
  EXPECT_TRUE(fired);
}

TEST(Scheduler, RunForAdvancesRelative) {
  Scheduler sched;
  sched.run_for(500);
  EXPECT_EQ(sched.now(), 500);
  sched.run_for(250);
  EXPECT_EQ(sched.now(), 750);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sched.schedule_after(1, recurse);
  };
  sched.schedule_at(0, recurse);
  sched.run_until_idle();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sched.now(), 9);
}

TEST(Scheduler, RunOneReturnsFalseWhenEmpty) {
  Scheduler sched;
  EXPECT_FALSE(sched.run_one());
  sched.schedule_at(5, [] {});
  EXPECT_TRUE(sched.run_one());
  EXPECT_FALSE(sched.run_one());
}

TEST(Scheduler, MaxEventsBoundsRun) {
  Scheduler sched;
  // Self-perpetuating event chain; run_until_idle must stop at the bound.
  std::function<void()> loop = [&] { sched.schedule_after(1, loop); };
  sched.schedule_at(0, loop);
  sched.run_until_idle(100);
  EXPECT_EQ(sched.events_processed(), 100u);
}

// --- callback slot reuse -----------------------------------------------------

TEST(Scheduler, CancellingAFiredIdSparesTheSlotsNewOccupant) {
  Scheduler sched;
  const TimerId first = sched.schedule_at(10, [] {});
  ASSERT_TRUE(sched.run_one());
  // The freed slot is reused by the next event; the stale id must not
  // reach it.
  bool fired = false;
  const TimerId second = sched.schedule_at(20, [&] { fired = true; });
  EXPECT_NE(first, second);
  EXPECT_NE(second, kInvalidTimer);
  sched.cancel(first);
  EXPECT_EQ(sched.pending(), 1u);
  sched.run_until_idle();
  EXPECT_TRUE(fired);
}

TEST(Scheduler, CancelledHeapEntryIsSkippedAfterItsSlotIsReused) {
  Scheduler sched;
  std::vector<int> order;
  const TimerId cancelled = sched.schedule_at(10, [&] { order.push_back(0); });
  sched.cancel(cancelled);
  // Reuses the cancelled event's slot while its heap entry (t=10) is still
  // queued; popping that entry must not run the new occupant early.
  sched.schedule_at(30, [&] { order.push_back(30); });
  sched.schedule_at(20, [&] { order.push_back(20); });
  EXPECT_EQ(sched.pending(), 2u);
  ASSERT_TRUE(sched.run_one());
  EXPECT_EQ(sched.now(), 20);
  sched.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{20, 30}));
  EXPECT_EQ(sched.events_processed(), 2u);
}

TEST(Scheduler, EqualTimesStayFifoAcrossSlotReuse) {
  Scheduler sched;
  std::vector<int> order;
  // Free slots in a scrambled order, then schedule equal-time events into
  // them: firing order must follow scheduling order, not slot order.
  std::vector<TimerId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(sched.schedule_at(5, [] {}));
  for (const int i : {3, 0, 5, 1}) sched.cancel(ids[i]);
  for (int i = 0; i < 6; ++i) {
    sched.schedule_at(50, [&order, i] { order.push_back(i); });
  }
  sched.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(sched.events_processed(), 8u);
}

TEST(Scheduler, PendingTracksScheduleCancelAndFire) {
  Scheduler sched;
  std::vector<TimerId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(sched.schedule_at(10 * (i + 1), [] {}));
  }
  EXPECT_EQ(sched.pending(), 5u);
  sched.cancel(ids[1]);
  sched.cancel(ids[1]);
  EXPECT_EQ(sched.pending(), 4u);
  ASSERT_TRUE(sched.run_one());  // t=10
  EXPECT_EQ(sched.pending(), 3u);
  sched.cancel(ids[0]);  // already fired
  EXPECT_EQ(sched.pending(), 3u);
  // A callback that schedules reuses a slot freed before it ran.
  sched.schedule_at(25, [&] { sched.schedule_after(1, [] {}); });
  EXPECT_EQ(sched.pending(), 4u);
  sched.run_until(25);
  EXPECT_EQ(sched.pending(), 4u);  // t=25 fired and added t=26
  sched.run_until_idle();
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_EQ(sched.events_processed(), 6u);
}

}  // namespace
}  // namespace sftbft::sim
