#pragma once

#include <any>
#include <cstddef>

#include "common/function.h"
#include "common/types.h"
#include "consensus/stats.h"

namespace praft::storage {
class DurableStore;
}  // namespace praft::storage

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

  /// One-shot timer. Protocols guard stale timers with epoch counters. A
  /// capture of up to 24 bytes rides in `fn` itself, with no heap box.
  virtual void schedule(Duration delay, UniqueFunction<void()> fn) = 0;

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

  /// The stable storage of every node this Env serves, or null (diskless).
  /// Not owned. It outlives the nodes too: a node rebuilt on this Env
  /// recovers from what its predecessor synced.
  [[nodiscard]] storage::DurableStore* store() const { return store_; }
  void set_store(storage::DurableStore* store) { store_ = store; }

 private:
  Stats stats_;
  Trace* trace_ = nullptr;
  storage::DurableStore* store_ = nullptr;
};

}  // namespace praft::consensus
