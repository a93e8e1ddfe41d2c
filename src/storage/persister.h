#pragma once

#include <any>
#include <deque>
#include <functional>
#include <utility>

#include "consensus/env.h"
#include "consensus/trace.h"
#include "consensus/types.h"
#include "storage/wal.h"

namespace praft::storage {

/// Per-node durability front end: the one place the write-ahead discipline
/// "persist hard state BEFORE the message that depends on it leaves the
/// node" is enforced. Protocols stage writes through it and route every
/// outgoing message through send(); a message queues behind the staged
/// writes it depends on and is released only when the covering fsync
/// completes. barrier() is the same gate for local actions (a leader may
/// count ITSELF toward a commit quorum only once its own log entries are
/// durable).
///
/// Group commit: syncs are coalesced — one modeled fsync (charged to the
/// store's sim::SerialResource disk) covers every write staged during the
/// `sync_batch_delay` window, reusing the runtime Batcher's scheduling
/// discipline (one pending flush, armed on first demand). This is the knob
/// the recovery bench flips: per-message fsyncs vs batched group commit.
///
/// The store is the Env's (consensus::Env::store), fixed when the Persister
/// is built. Two degenerate modes keep the rest of the repo simple:
///  * no store (null): a diskless node — sends go straight out, barriers
///    run inline. Unit tests that never crash-restart use this.
///  * zero-cost storage (fsync_duration == 0 and sync_batch_delay == 0):
///    every staged write commits synchronously, so sends never defer and
///    event trajectories are identical to the diskless mode — but the store
///    still holds a complete durable image, so crash-restart works.
///
/// Every message that leaves reports the hard state it depended on to the
/// Env's Trace (Trace::on_sent_state), as replica `self`: captured when the
/// message was sent, reported when it actually leaves.
class Persister {
 public:
  using HardStateFn = std::function<consensus::HardState()>;

  Persister(consensus::Env& env, NodeId self, Duration fsync_duration,
            Duration sync_batch_delay, HardStateFn hard_state)
      : env_(env),
        self_(self),
        store_(env.store()),
        fsync_(fsync_duration),
        delay_(sync_batch_delay),
        hard_state_(std::move(hard_state)) {}

  /// The Env's store (null: diskless).
  [[nodiscard]] const DurableStore* store() const { return store_; }

  // -- Staging (no-ops without a store) -------------------------------------
  void hard_state() {
    if (store_ == nullptr) return;
    store_->stage_hard_state(hard_state_());
    maybe_commit_now();
  }
  void record(WalRecord r) {
    if (store_ == nullptr) return;
    store_->stage_record(std::move(r));
    maybe_commit_now();
  }
  void truncate_after(consensus::LogIndex last_kept) {
    if (store_ == nullptr) return;
    store_->stage_truncate_after(last_kept);
    maybe_commit_now();
  }
  void snapshot(const consensus::Snapshot& snap) {
    if (store_ == nullptr) return;
    store_->stage_snapshot(snap);
    maybe_commit_now();
  }

  /// Sends `payload` once every write staged so far is durable. The hard
  /// state the message depends on is captured NOW; the trace sees it when
  /// the message actually leaves.
  void send(NodeId to, std::any payload) {
    const consensus::HardState hs = hard_state_();
    if (clean()) {
      leave(to, std::move(payload), hs);
      return;
    }
    waiters_.push_back(
        Waiter{store_->staged_seq(), to, std::move(payload), hs, nullptr});
    arm();
  }

  /// Runs `fn` once every write staged so far is durable.
  void barrier(std::function<void()> fn) {
    if (clean()) {
      fn();
      return;
    }
    waiters_.push_back(Waiter{store_->staged_seq(), kNoNode, {},
                              consensus::HardState{}, std::move(fn)});
    arm();
  }

  /// TEST-ONLY unsafe path (TimingOptions::unsafe_skip_vote_fsync): sends
  /// immediately WITHOUT waiting for the staged hard state to reach disk —
  /// the classic missing-fsync-before-vote-reply bug. The trace still
  /// records the state the message depended on, which is how the chaos
  /// checker convicts a later crash of regressing externally-visible state.
  void send_unsynced(NodeId to, std::any payload) {
    leave(to, std::move(payload), hard_state_());
  }

 private:
  struct Waiter {
    uint64_t seq = 0;
    NodeId to = kNoNode;
    std::any payload;
    consensus::HardState hs;
    std::function<void()> fn;  // barrier waiters; null for sends
  };

  void leave(NodeId to, std::any&& payload, const consensus::HardState& hs) {
    if (consensus::Trace* t = env_.trace()) t->on_sent_state(self_, hs);
    env_.send(to, std::move(payload));
  }

  [[nodiscard]] bool clean() const {
    return store_ == nullptr || (!store_->dirty() && waiters_.empty());
  }

  /// Zero-cost mode: fsync completes instantly, so commit inline and keep
  /// trajectories identical to a diskless run.
  void maybe_commit_now() {
    if (fsync_ == 0 && delay_ == 0) {
      store_->commit_through(store_->staged_seq());
      store_->note_sync();
    }
  }

  void arm() {
    if (sync_pending_) return;
    sync_pending_ = true;
    env_.schedule(delay_, [this] { begin_sync(); });
  }

  void begin_sync() {
    const uint64_t seq = store_->staged_seq();
    const Time done = store_->disk().enqueue(env_.now(), fsync_);
    env_.schedule(done - env_.now(), [this, seq] {
      store_->commit_through(seq);
      store_->note_sync();
      release(seq);
      sync_pending_ = false;
      if (store_->dirty() || !waiters_.empty()) arm();
    });
  }

  void release(uint64_t seq) {
    while (!waiters_.empty() && waiters_.front().seq <= seq) {
      Waiter w = std::move(waiters_.front());
      waiters_.pop_front();
      if (w.fn) {
        w.fn();
      } else {
        leave(w.to, std::move(w.payload), w.hs);
      }
    }
  }

  consensus::Env& env_;
  NodeId self_;
  DurableStore* store_;
  Duration fsync_;
  Duration delay_;
  HardStateFn hard_state_;
  std::deque<Waiter> waiters_;
  bool sync_pending_ = false;
};

}  // namespace praft::storage
