#include "sftbft/sim/scheduler.hpp"

#include <cassert>
#include <utility>

namespace sftbft::sim {

TimerId Scheduler::schedule_at(SimTime t, Callback cb) {
  assert(t >= now_ && "cannot schedule into the past");
  auto slot = static_cast<std::uint32_t>(slots_.size());
  if (free_.empty()) {
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  slots_[slot].cb = std::move(cb);
  ++live_;
  const TimerId id =
      (static_cast<TimerId>(slots_[slot].gen) << 32) | (TimerId{slot} + 1);
  heap_.push(Event{.time = t < now_ ? now_ : t, .seq = next_seq_++, .id = id});
  return id;
}

TimerId Scheduler::schedule_after(SimDuration delay, Callback cb) {
  assert(delay >= 0);
  return schedule_at(now_ + delay, std::move(cb));
}

bool Scheduler::live(TimerId id) const {
  const std::uint32_t slot = slot_of(id);
  return slot < slots_.size() &&
         slots_[slot].gen == static_cast<std::uint32_t>(id >> 32);
}

void Scheduler::release(std::uint32_t slot) {
  slots_[slot].cb = nullptr;
  ++slots_[slot].gen;
  free_.push_back(slot);
  --live_;
}

void Scheduler::cancel(TimerId id) {
  if (live(id)) release(slot_of(id));
}

bool Scheduler::dispatch(const Event& ev) {
  if (!live(ev.id)) return false;  // cancelled
  now_ = ev.time;
  const std::uint32_t slot = slot_of(ev.id);
  Callback cb = std::move(slots_[slot].cb);
  release(slot);
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
