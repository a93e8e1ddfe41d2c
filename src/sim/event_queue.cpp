#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace praft::sim {

void EventQueue::schedule_at(Time at, UniqueFunction<void()> fn) {
  PRAFT_CHECK(fn != nullptr);
  if (at < now_) at = now_;
  heap_.push_back(Event{at, next_seq_++, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  PRAFT_CHECK(ev.at >= now_);
  now_ = ev.at;
  ++fired_;
  ev.fn();
  return true;
}

void EventQueue::run_until(Time t) {
  while (!heap_.empty() && heap_.front().at <= t) step();
  if (now_ < t) now_ = t;
}

void EventQueue::run_all(uint64_t max_events) {
  uint64_t n = 0;
  while (n < max_events && step()) ++n;
}

void EventQueue::clear() {
  heap_ = decltype(heap_){};
}

}  // namespace praft::sim
