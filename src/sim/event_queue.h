#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/function.h"
#include "common/types.h"

namespace praft::sim {

using EventId = uint64_t;
inline constexpr EventId kNoEvent = 0;

/// Deterministic discrete-event queue. Events at equal timestamps fire in
/// scheduling order (FIFO by sequence number), which keeps whole simulations
/// reproducible for a given seed.
class EventQueue {
 public:
  /// Schedules `fn` to run at absolute time `at` (clamped to now()).
  /// Callables may be move-only (e.g. deliveries owning a pooled wire frame).
  EventId schedule_at(Time at, UniqueFunction<void()> fn);

  /// Cancels a pending event; no-op if it already fired or was cancelled.
  /// O(pending): it looks the id up in the heap (nothing on the simulator's
  /// hot path cancels).
  void cancel(EventId id);

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
  [[nodiscard]] size_t pending() const { return heap_.size() - cancelled_.size(); }
  [[nodiscard]] uint64_t events_fired() const { return fired_; }

 private:
  struct Event {
    Time at;
    EventId id;
    UniqueFunction<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.id > b.id;
    }
  };

  /// Discards cancelled events from the top of the heap, so the top is the
  /// next event to fire.
  void drop_cancelled();

  std::vector<Event> heap_;  // std::push_heap / std::pop_heap under Later
  std::unordered_set<EventId> cancelled_;  // ids still in heap_
  Time now_ = 0;
  EventId next_id_ = 1;
  uint64_t fired_ = 0;
};

}  // namespace praft::sim
