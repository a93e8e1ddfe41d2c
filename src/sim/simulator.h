#pragma once

#include <utility>

#include "common/rng.h"
#include "common/types.h"
#include "sim/event_queue.h"

namespace praft::sim {

/// Bundles the event queue with the root RNG. Every component of a simulated
/// world (network, nodes, clients) is driven from one Simulator so that a
/// (seed, configuration) pair fully determines the execution.
class Simulator {
 public:
  explicit Simulator(uint64_t seed = 1) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const { return queue_.now(); }
  EventQueue& queue() { return queue_; }
  Rng& rng() { return rng_; }

  template <typename F>
  void after(Duration delay, F&& fn) {
    queue_.schedule_at(now() + delay, std::forward<F>(fn));
  }
  template <typename F>
  void at(Time t, F&& fn) {
    queue_.schedule_at(t, std::forward<F>(fn));
  }

  void run_until(Time t) { queue_.run_until(t); }
  void run_for(Duration d) { queue_.run_until(now() + d); }
  void run_all(uint64_t max_events = UINT64_MAX) { queue_.run_all(max_events); }

 private:
  EventQueue queue_;
  Rng rng_;
};

}  // namespace praft::sim
