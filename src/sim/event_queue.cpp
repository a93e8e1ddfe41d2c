#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace praft::sim {

EventId EventQueue::schedule_at(Time at, UniqueFunction<void()> fn) {
  PRAFT_CHECK(fn != nullptr);
  if (at < now_) at = now_;
  const EventId id = next_id_++;
  heap_.push_back(Event{at, id, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return id;
}

void EventQueue::cancel(EventId id) {
  // Only a pending id may enter cancelled_: pending() subtracts its size.
  const bool in_heap = std::any_of(heap_.begin(), heap_.end(),
                                   [id](const Event& e) { return e.id == id; });
  if (in_heap) cancelled_.insert(id);
}

void EventQueue::drop_cancelled() {
  while (!heap_.empty() && !cancelled_.empty() &&
         cancelled_.erase(heap_.front().id) > 0) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

bool EventQueue::step() {
  drop_cancelled();
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
  // A cancelled event at the top must not let a later one slip past `t`.
  drop_cancelled();
  while (!heap_.empty() && heap_.front().at <= t) {
    step();
    drop_cancelled();
  }
  if (now_ < t) now_ = t;
}

void EventQueue::run_all(uint64_t max_events) {
  uint64_t n = 0;
  while (n < max_events && step()) ++n;
}

void EventQueue::clear() {
  heap_ = decltype(heap_){};
  cancelled_.clear();
}

}  // namespace praft::sim
