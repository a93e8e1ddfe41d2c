#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "consensus/env.h"

namespace praft::consensus {

/// Epoch-guarded randomized leader-failure timer over Env::schedule — the
/// machinery all four protocols used to hand-roll (jitter + stale-timer
/// guards + quiet-period check).
///
/// The timer repeatedly arms itself with a fresh uniform timeout drawn from
/// [lo, hi]. When a timeout elapses it fires the handler with
/// `expired == true` iff the gate passes (e.g. "not currently leader") AND
/// no activity was recorded via touch() for at least the drawn timeout —
/// exactly the classic "have I heard from a leader lately" check. Every
/// firing (expired or not) reaches the handler, so protocols can hang
/// auxiliary periodic work off it (Paxos re-requests lost LearnValues).
///
/// Epoch semantics: reset()/start() invalidate every previously scheduled
/// callback; a stale timer whose epoch no longer matches is a no-op even if
/// the Env still fires it. This is what makes one-shot Env timers safe to
/// abandon rather than cancel.
class ElectionTimer {
 public:
  /// handler(expired): invoked on every timer firing.
  using Handler = std::function<void(bool expired)>;
  /// Expiry is suppressed (but the chain keeps ticking) while gate() is
  /// false. Defaults to always-true.
  using Gate = std::function<bool()>;

  ElectionTimer(Env& env, Duration lo, Duration hi) : env_(env), lo_(lo), hi_(hi) {}

  void set_handler(Handler h) { handler_ = std::move(h); }
  void set_gate(Gate g) { gate_ = std::move(g); }

  /// Arms the repeating chain. Supersedes any previously armed chain.
  void start() { reset(); }

  /// Bumps the epoch (stale timers never fire) and arms a fresh timeout.
  void reset() {
    ++epoch_;
    arm();
  }

  /// Stops the chain: pending callbacks become no-ops.
  void cancel() { ++epoch_; }

  /// Records leader activity (heartbeat seen, vote granted): defers expiry.
  void touch() { last_activity_ = env_.now(); }

  [[nodiscard]] uint64_t epoch() const { return epoch_; }

 private:
  void arm() {
    const uint64_t epoch = epoch_;
    const Duration timeout = env_.random_range(lo_, hi_);
    env_.schedule(timeout, [this, epoch, timeout] {
      if (epoch != epoch_) return;  // superseded
      const bool quiet = env_.now() - last_activity_ >= timeout;
      const bool expired = quiet && (!gate_ || gate_());
      if (handler_) handler_(expired);
      if (epoch != epoch_) return;  // handler reset/cancelled us
      arm();
    });
  }

  Env& env_;
  Duration lo_;
  Duration hi_;
  Handler handler_;
  Gate gate_;
  Time last_activity_ = 0;
  uint64_t epoch_ = 0;
};

/// Epoch-guarded repeating timer for leader heartbeats and maintenance
/// ticks. The chain dies silently when the gate turns false (the classic
/// "stop heartbeating after step-down" idiom) and is re-armed by the next
/// start().
class PeriodicTimer {
 public:
  using Handler = std::function<void()>;
  using Gate = std::function<bool()>;

  explicit PeriodicTimer(Env& env) : env_(env) {}

  void set_handler(Handler h) { handler_ = std::move(h); }
  /// The chain stops (without firing) the first time gate() is false.
  void set_gate(Gate g) { gate_ = std::move(g); }

  /// (Re)starts the chain at `interval`; supersedes any previous chain.
  void start(Duration interval) {
    interval_ = interval;
    ++epoch_;
    arm();
  }

  /// Stops the chain: pending callbacks become no-ops.
  void stop() { ++epoch_; }

  [[nodiscard]] uint64_t epoch() const { return epoch_; }

 private:
  void arm() {
    const uint64_t epoch = epoch_;
    env_.schedule(interval_, [this, epoch] {
      if (epoch != epoch_) return;  // superseded
      if (gate_ && !gate_()) return;  // chain dies (e.g. stepped down)
      if (handler_) handler_();
      if (epoch != epoch_) return;  // handler restarted/stopped us
      arm();
    });
  }

  Env& env_;
  Duration interval_ = 0;
  Handler handler_;
  Gate gate_;
  uint64_t epoch_ = 0;
};

}  // namespace praft::consensus
