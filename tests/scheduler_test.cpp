// Discrete-event scheduler: ordering, FIFO tie-breaking, cancellation,
// bounded runs — the determinism substrate every experiment relies on.
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

}  // namespace
}  // namespace sftbft::sim
