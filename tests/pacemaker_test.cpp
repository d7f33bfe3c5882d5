// Pacemaker: round entry, timers, timeout signalling.
#include <gtest/gtest.h>

#include <vector>

#include "sftbft/consensus/pacemaker.hpp"

namespace sftbft::consensus {
namespace {

struct Harness {
  sim::Scheduler sched;
  std::vector<Round> entered;
  std::vector<Round> timeouts;
  Pacemaker pacemaker;

  explicit Harness(PacemakerConfig config = {.base_timeout = millis(100)})
      : pacemaker(sched, config,
                  {.on_round_entered = [this](Round r) { entered.push_back(r); },
                   .on_local_timeout =
                       [this](Round r) { timeouts.push_back(r); }}) {}
};

TEST(Pacemaker, StartEntersRoundOne) {
  Harness h;
  h.pacemaker.start();
  EXPECT_EQ(h.pacemaker.current_round(), 1u);
  EXPECT_EQ(h.entered, (std::vector<Round>{1}));
}

TEST(Pacemaker, AdvanceOnlyForward) {
  Harness h;
  h.pacemaker.start();
  EXPECT_TRUE(h.pacemaker.advance_to(4));
  EXPECT_FALSE(h.pacemaker.advance_to(4));
  EXPECT_FALSE(h.pacemaker.advance_to(2));
  EXPECT_EQ(h.pacemaker.current_round(), 4u);
  EXPECT_EQ(h.entered, (std::vector<Round>{1, 4}));
}

TEST(Pacemaker, TimerFiresWithoutProgress) {
  Harness h;
  h.pacemaker.start();
  h.sched.run_for(millis(150));
  EXPECT_EQ(h.timeouts, (std::vector<Round>{1}));
  EXPECT_TRUE(h.pacemaker.timed_out());
  // The pacemaker stays in the round until a QC/TC advances it.
  EXPECT_EQ(h.pacemaker.current_round(), 1u);
}

TEST(Pacemaker, ProgressCancelsTimer) {
  Harness h;
  h.pacemaker.start();
  h.sched.run_for(millis(50));
  h.pacemaker.advance_to(2);  // fresh timer from t=50ms
  h.sched.run_for(millis(80));  // t=130: round-1 timer (would be 100) is dead
  EXPECT_TRUE(h.timeouts.empty());
  h.sched.run_for(millis(30));  // t=160: round-2 timer fires (50+100=150)
  EXPECT_EQ(h.timeouts, (std::vector<Round>{2}));
}

TEST(Pacemaker, StopSilencesTimers) {
  Harness h;
  h.pacemaker.start();
  h.pacemaker.stop();
  h.sched.run_for(millis(500));
  EXPECT_TRUE(h.timeouts.empty());
  EXPECT_FALSE(h.pacemaker.advance_to(5));
}

}  // namespace
}  // namespace sftbft::consensus
