#include "sim/event_queue.h"

#include <algorithm>

#include "common/check.h"

namespace praft::sim {

EventQueue::Cell& EventQueue::take_cell() {
  if (free_.empty()) return cells_.emplace_back();
  Cell* cell = free_.back();
  free_.pop_back();
  return *cell;
}

void EventQueue::push(Time at, Cell& cell) {
  const bool empty = cell == nullptr;
  if (empty) free_.push_back(&cell);
  PRAFT_CHECK_MSG(!empty, "scheduled an empty callable");
  if (at < now_) at = now_;
  heap_.push_back(Key{at, next_seq_++, &cell});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key ev = heap_.back();
  heap_.pop_back();
  PRAFT_CHECK(ev.at >= now_);
  now_ = ev.at;
  ++fired_;
  // Destroys the closure and recycles its cell on the way out, whether the
  // closure returns or throws.
  struct Release {
    EventQueue& q;
    Cell& cell;
    ~Release() {
      cell = nullptr;
      q.free_.push_back(&cell);
    }
  } release{*this, *ev.cell};
  (*ev.cell)();
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

}  // namespace praft::sim
