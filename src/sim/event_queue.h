#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/function.h"
#include "common/types.h"

namespace praft::sim {

/// Deterministic discrete-event queue. Events at equal timestamps fire in
/// scheduling order (FIFO by sequence number), which keeps whole simulations
/// reproducible for a given seed.
///
/// Each pending event's closure sits in a recycled 64-byte cell, in place
/// unless it is larger than fits_in_cell allows (then the cell holds a heap
/// box), and the binary heap orders trivially copyable {at, seq, cell} keys.
/// Cells never move, so a running closure may schedule more events.
class EventQueue {
  using Cell = UniqueFunction<void(), 64>;

 public:
  /// True when a closure of type F is held in its cell with no heap box.
  template <typename F>
  static constexpr bool fits_in_cell = Cell::fits_inline<F>;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` to run at absolute time `at` (clamped to now()).
  /// Callables may be move-only (e.g. deliveries owning their payload).
  /// There is no cancel: components retire stale work by epoch.
  template <typename F>
  void schedule_at(Time at, F&& fn) {
    Cell& cell = take_cell();
    cell = std::forward<F>(fn);
    push(at, cell);
  }

  /// Runs the earliest pending event. Returns false when the queue is empty.
  /// Its cell is freed however the closure exits, a throw included.
  bool step();

  /// Runs all events with timestamp <= `t`, then advances the clock to `t`.
  void run_until(Time t);

  /// Runs until the queue drains or `max_events` have fired.
  void run_all(uint64_t max_events = UINT64_MAX);

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] uint64_t events_fired() const { return fired_; }

 private:
  struct Key {
    Time at;
    uint64_t seq;  // scheduling order: the tie-break for equal `at`
    Cell* cell;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  Cell& take_cell();
  void push(Time at, Cell& cell);

  std::vector<Key> heap_;  // std::push_heap / std::pop_heap under Later
  std::deque<Cell> cells_;  // every cell ever used; an empty one is free
  std::vector<Cell*> free_;
  Time now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t fired_ = 0;
};

}  // namespace praft::sim
