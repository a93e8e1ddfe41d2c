#pragma once

#include <cstdint>
#include <vector>

#include "common/function.h"
#include "common/types.h"

namespace praft::sim {

/// Deterministic discrete-event queue. Events at equal timestamps fire in
/// scheduling order (FIFO by sequence number), which keeps whole simulations
/// reproducible for a given seed.
class EventQueue {
 public:
  /// Schedules `fn` to run at absolute time `at` (clamped to now()).
  /// Callables may be move-only (e.g. deliveries owning a pooled wire frame).
  /// There is no cancel: components retire stale work by epoch.
  void schedule_at(Time at, UniqueFunction<void()> fn);

  /// Runs the earliest pending event. Returns false when the queue is empty.
  bool step();

  /// Runs all events with timestamp <= `t`, then advances the clock to `t`.
  void run_until(Time t);

  /// Runs until the queue drains or `max_events` have fired.
  void run_all(uint64_t max_events = UINT64_MAX);

  /// Drops every pending event without running it; their closures (and any
  /// pooled frames they own) are destroyed. Used at world teardown so
  /// in-flight deliveries release their frames before the pool dies.
  void clear();

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] uint64_t events_fired() const { return fired_; }

 private:
  struct Event {
    Time at;
    uint64_t seq;  // scheduling order: the tie-break for equal `at`
    UniqueFunction<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  std::vector<Event> heap_;  // std::push_heap / std::pop_heap under Later
  Time now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t fired_ = 0;
};

}  // namespace praft::sim
