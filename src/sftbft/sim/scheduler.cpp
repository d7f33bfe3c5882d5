#include "sftbft/sim/scheduler.hpp"

#include <cassert>
#include <utility>

namespace sftbft::sim {

TimerId Scheduler::schedule_at(SimTime t, Callback cb) {
  assert(t >= now_ && "cannot schedule into the past");
  const TimerId id = next_seq_++;
  heap_.push(Event{.time = t < now_ ? now_ : t, .seq = id, .id = id});
  callbacks_.emplace(id, std::move(cb));
  return id;
}

TimerId Scheduler::schedule_after(SimDuration delay, Callback cb) {
  assert(delay >= 0);
  return schedule_at(now_ + delay, std::move(cb));
}

void Scheduler::cancel(TimerId id) { callbacks_.erase(id); }

bool Scheduler::dispatch(const Event& ev) {
  auto it = callbacks_.find(ev.id);
  if (it == callbacks_.end()) return false;  // cancelled
  now_ = ev.time;
  Callback cb = std::move(it->second);
  callbacks_.erase(it);
  ++processed_;
  cb();
  return true;
}

bool Scheduler::run_one() {
  while (!heap_.empty()) {
    const Event ev = heap_.top();
    heap_.pop();
    if (dispatch(ev)) return true;
  }
  return false;
}

void Scheduler::run_until(SimTime deadline) {
  while (!heap_.empty()) {
    const Event ev = heap_.top();
    if (ev.time > deadline) break;
    heap_.pop();
    dispatch(ev);
  }
  if (now_ < deadline) now_ = deadline;
}

void Scheduler::run_for(SimDuration duration) { run_until(now_ + duration); }

void Scheduler::run_until_idle(std::uint64_t max_events) {
  std::uint64_t count = 0;
  while (count < max_events && run_one()) ++count;
}

}  // namespace sftbft::sim
