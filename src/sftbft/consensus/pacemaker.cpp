#include "sftbft/consensus/pacemaker.hpp"

#include <cassert>

namespace sftbft::consensus {

Pacemaker::Pacemaker(sim::Scheduler& sched, PacemakerConfig config,
                     Callbacks callbacks)
    : sched_(sched),
      config_(config),
      callbacks_(std::move(callbacks)),
      probe_(config.observer, config.id) {}

void Pacemaker::start() {
  assert(round_ == 0);
  enter(1);
}

void Pacemaker::stop() {
  stopped_ = true;
  sched_.cancel(timer_);
  timer_ = sim::kInvalidTimer;
}

void Pacemaker::resume(Round round) {
  stopped_ = false;
  enter(round > 0 ? round : 1);
}

bool Pacemaker::advance_to(Round round) {
  if (stopped_ || round <= round_) return false;
  enter(round);
  return true;
}

void Pacemaker::enter(Round round) {
  round_ = round;
  timed_out_ = false;
  arm_timer();
  probe_.round_entered(round, sched_.now());
  if (callbacks_.on_round_entered) callbacks_.on_round_entered(round);
}

void Pacemaker::arm_timer() {
  sched_.cancel(timer_);
  timer_ = sched_.schedule_after(config_.base_timeout, [this] {
    timer_ = sim::kInvalidTimer;
    if (stopped_) return;
    timed_out_ = true;
    const Round expired = round_;
    probe_.timed_out(expired, sched_.now());
    if (callbacks_.on_local_timeout) callbacks_.on_local_timeout(expired);
  });
}

}  // namespace sftbft::consensus
