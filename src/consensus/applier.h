#pragma once

#include <utility>

#include "common/check.h"
#include "consensus/env.h"
#include "consensus/snapshot.h"
#include "consensus/trace.h"
#include "consensus/types.h"

namespace praft::consensus {

/// Shared commit/apply watermark: guarantees the state machine sees every
/// position exactly once, in order, regardless of how the protocol decides
/// positions (contiguous commit index in Raft/Raft*, out-of-order chosen
/// instances behind a floor in MultiPaxos, per-slot decisions in Mencius).
///
/// The protocol supplies a `get(index) -> const kv::Command*` lookup; a null
/// return means "not locally available yet" and pauses delivery at the gap
/// without losing the commit watermark (Paxos replicas repair gaps via
/// LearnValues and drain later).
///
/// Re-entrancy: apply callbacks may feed back into the protocol (Mencius
/// re-proposes a lost command from inside its acked callback, which can land
/// back here). A nested drain is folded into the outer loop instead of
/// recursing.
class Applier {
 public:
  /// `start` is the inclusive index *before* the first real position:
  /// 0 for 1-based logs (Raft/Raft*/MultiPaxos), -1 for Mencius' 0-based
  /// slot space.
  explicit Applier(LogIndex start = 0) : commit_(start), applied_(start) {}

  void set_apply(ApplyFn fn) { apply_ = std::move(fn); }

  /// Reports the (commit, applied) watermarks after every drain (including
  /// drains that delivered nothing) and every snapshot install to the Trace
  /// of `env`, as replica `self`. Each node's constructor points its Applier
  /// at its own Env; an Applier never pointed anywhere reports nothing.
  void set_trace(const Env& env, NodeId self) {
    env_ = &env;
    self_ = self;
  }

  /// Snapshot hooks (installed by the harness adapter owning the state
  /// machine): `capture` serializes the store at the current applied
  /// watermark, `restore` replaces it during a snapshot install. Protocols
  /// that never see these hooks simply cannot compact.
  void set_state_hooks(StateCapture capture, StateRestore restore) {
    capture_ = std::move(capture);
    restore_ = std::move(restore);
  }

  /// True once a capture hook is installed (compaction is possible).
  [[nodiscard]] bool can_snapshot() const { return capture_ != nullptr; }

  /// Serializes the state machine. Only meaningful at the applied watermark:
  /// the caller stamps the returned image with applied() as the snapshot's
  /// last_index.
  [[nodiscard]] kv::StoreImage capture_state() const {
    PRAFT_CHECK_MSG(capture_ != nullptr, "no snapshot capture hook installed");
    return capture_();
  }

  /// Installs `snap` if it is ahead of the applied watermark: restores the
  /// state machine and jumps both watermarks to snap.last_index (the skipped
  /// positions were applied by the snapshot's provider — exactly-once is
  /// preserved because this replica never applies them individually).
  /// Returns false (no-op) for stale snapshots.
  bool install_snapshot(const Snapshot& snap) {
    if (snap.last_index <= applied_) return false;
    PRAFT_CHECK_MSG(restore_ != nullptr, "no snapshot restore hook installed");
    restore_(snap.state, snap.last_index);
    applied_ = snap.last_index;
    if (commit_ < applied_) commit_ = applied_;
    report();
    return true;
  }

  /// Highest position known committed/chosen-contiguously (inclusive).
  [[nodiscard]] LogIndex commit_index() const { return commit_; }
  /// Highest position delivered to the state machine (inclusive).
  [[nodiscard]] LogIndex applied() const { return applied_; }
  /// First position NOT yet delivered (exclusive floor).
  [[nodiscard]] LogIndex next_index() const { return applied_ + 1; }

  /// Raises the commit watermark to `commit` (monotone: lower values are
  /// ignored) and delivers every available position up to it.
  template <typename Get>
  void commit_to(LogIndex commit, Get&& get) {
    if (commit > commit_) commit_ = commit;
    drain_bounded(std::forward<Get>(get), /*bounded=*/true);
  }

  /// Delivers every consecutively-available position, without a watermark
  /// bound (Mencius: decisions are per-slot, there is no global commit
  /// index). The commit watermark trails the applied one.
  template <typename Get>
  void drain(Get&& get) {
    drain_bounded(std::forward<Get>(get), /*bounded=*/false);
  }

 private:
  template <typename Get>
  void drain_bounded(Get&& get, bool bounded) {
    if (draining_) return;  // nested call: the outer loop picks it up
    draining_ = true;
    while (!bounded || applied_ < commit_) {
      const kv::Command* cmd = get(applied_ + 1);
      if (cmd == nullptr) break;  // gap: wait for repair
      ++applied_;
      if (commit_ < applied_) commit_ = applied_;
      if (apply_) apply_(applied_, *cmd);
    }
    PRAFT_CHECK(applied_ <= commit_);
    draining_ = false;
    report();
  }

  void report() const {
    if (env_ == nullptr) return;
    if (Trace* t = env_->trace()) t->on_watermark(self_, commit_, applied_);
  }

  LogIndex commit_;
  LogIndex applied_;
  bool draining_ = false;
  ApplyFn apply_;
  const Env* env_ = nullptr;
  NodeId self_ = kNoNode;
  StateCapture capture_;
  StateRestore restore_;
};

}  // namespace praft::consensus
