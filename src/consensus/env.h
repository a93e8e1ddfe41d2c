#pragma once

#include <any>
#include <cstddef>
#include <functional>

#include "common/types.h"
#include "consensus/stats.h"

namespace praft::consensus {

class Trace;

/// The only door between a protocol node and the outside world. Protocol
/// implementations are sans-io: they never touch the simulator (or a real
/// socket) directly, which makes them unit-testable with scripted Envs and
/// reusable across the simulated and any future real transport.
class Env {
 public:
  virtual ~Env() = default;

  [[nodiscard]] virtual Time now() const = 0;

  /// Sends a protocol message of modeled wire size `bytes`.
  virtual void send(NodeId to, std::any payload, size_t bytes) = 0;

  /// One-shot timer. Protocols guard stale timers with epoch counters.
  virtual void schedule(Duration delay, std::function<void()> fn) = 0;

  /// Deterministic randomness (election jitter etc.).
  virtual uint64_t random() = 0;

  /// Uniform duration in [lo, hi].
  Duration random_range(Duration lo, Duration hi) {
    if (hi <= lo) return lo;
    return lo + static_cast<Duration>(random() %
                                      static_cast<uint64_t>(hi - lo + 1));
  }

  /// The counters of every node this Env has served. Nodes count here, not
  /// in fields of their own, so a rebuilt node keeps adding to its
  /// predecessor's block.
  Stats& stats() { return stats_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// The observer of every node this Env serves, or null (untraced). Like
  /// the Stats block it outlives the nodes, so one set_trace reaches a
  /// rebuilt node too.
  [[nodiscard]] Trace* trace() const { return trace_; }
  void set_trace(Trace* trace) { trace_ = trace; }

 private:
  Stats stats_;
  Trace* trace_ = nullptr;
};

}  // namespace praft::consensus
