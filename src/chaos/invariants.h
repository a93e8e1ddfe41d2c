#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "consensus/trace.h"
#include "consensus/types.h"
#include "kv/command.h"
#include "storage/wal.h"

namespace praft::harness {
class ReplicaGroup;
}

namespace praft::chaos {

/// Streaming cross-protocol invariant checker. The paper's structural-
/// parallelism claim means every protocol in the repo must satisfy the same
/// trace properties; this class states them once, protocol-agnostically:
///
///  * agreement       — at most one command is ever applied per log position
///                      across all replicas (Election Safety / Log Matching
///                      made observable at the apply boundary);
///  * apply order     — each replica applies positions contiguously, exactly
///                      once (the Applier contract, re-checked end to end);
///  * watermarks      — per replica, the commit watermark never regresses
///                      and applied never overtakes commit — across crash
///                      windows too (committed-prefix durability);
///  * linearizability — every client-visible read returns the value of the
///                      latest write ordered before it in the agreed log
///                      (reads are logged, so the log IS the linearization
///                      order — the executable form of specs::kvlog's
///                      "table[k] = latest logs[k]" refinement mapping), and
///                      every acknowledged write survives in the agreed log;
///  * crash recovery  — a restarted replica's recovered hard state is never
///                      OLDER than the hard state any message it sent
///                      depended on (no term/ballot/vote regression — the
///                      observable form of "fsync before the reply leaves"),
///                      and recovery replays at most (wal tail − snapshot
///                      floor) entries (snapshots really bound replay);
///  * snapshots       — a snapshot install only jumps a replica FORWARD, and
///                      the installed store state equals replaying the
///                      agreed log prefix it claims to cover (exactly-once
///                      apply and linearizability hold ACROSS installs: the
///                      skipped positions were applied once, by the
///                      snapshot's provider);
///  * bounded memory  — with compaction enabled, no replica's applied-but-
///                      uncompacted log tail ever exceeds the configured cap
///                      (sampled between events, where the trigger has run);
///  * convergence     — once faults stop and the cluster quiesces, all
///                      replicas applied the same prefix and hold identical
///                      stores.
///
/// Violations are recorded (not thrown) together with a bounded recent-event
/// trace so a chaos runner can print seed + trace and keep scanning.
class InvariantChecker final : public consensus::Trace {
 public:
  explicit InvariantChecker(size_t trace_capacity = 48)
      : trace_capacity_(trace_capacity) {}

  /// Becomes `group`'s Trace and installs its apply probe (both reach every
  /// incarnation of every member). Client replies arrive through on_reply
  /// from whichever cluster owns the clients.
  void attach(harness::ReplicaGroup& group);

  /// Annotates the trace (fault activations, phase markers).
  void note(std::string event);

  // Streaming observation points (normally fed via attach()).
  void on_apply(NodeId replica, consensus::LogIndex idx,
                const kv::Command& cmd);
  void on_reply(const kv::Command& cmd, uint64_t value, bool ok);
  // consensus::Trace
  void on_watermark(NodeId replica, consensus::LogIndex commit,
                    consensus::LogIndex applied) override;
  void on_snapshot_install(NodeId replica, consensus::LogIndex idx,
                           uint64_t store_fp) override;
  void on_sent_state(NodeId replica, const consensus::HardState& hs) override;
  void on_restart(NodeId replica, const consensus::HardState& recovered,
                  const storage::RecoveryStats& stats,
                  consensus::LogIndex applied) override;

  /// Arms the bounded-memory invariant: each sample asserts every replica's
  /// compactable (applied-but-uncompacted) entries stay at or below `cap`.
  void set_memory_cap(size_t cap) { memory_cap_ = cap; }
  /// Samples the bounded-memory invariant across `group` now (call from a
  /// simulator callback, between events — the compaction trigger runs
  /// synchronously with apply advances, so between events the cap holds).
  void sample_memory(const harness::ReplicaGroup& group);

  /// End-of-run checks on `group`: replica convergence and client-visible
  /// linearizability of the whole KV history against the agreed log.
  void finalize(const harness::ReplicaGroup& group);

  [[nodiscard]] bool ok() const { return violations_.empty(); }
  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::vector<std::string> trace() const {
    return {trace_.begin(), trace_.end()};
  }
  /// Highest log position any replica applied (run-size diagnostics).
  [[nodiscard]] consensus::LogIndex max_applied() const { return max_applied_; }
  [[nodiscard]] uint64_t client_ops() const { return replies_.size(); }
  /// Snapshot installs observed across the run (catch-up via state
  /// transfer rather than log replay).
  [[nodiscard]] uint64_t snapshot_installs() const { return installs_.size(); }
  /// Crash-restarts observed across the run.
  [[nodiscard]] uint64_t restarts() const { return restarts_; }
  /// Order-sensitive streaming fingerprint of everything this checker
  /// observed: every apply, watermark advance, reply, snapshot install,
  /// sent-state sample, restart, and trace annotation, mixed in arrival
  /// order. Two runs of the same (protocol, seed, options) must produce the
  /// SAME fingerprint — chaos_runner --verify-determinism runs each seed
  /// twice and convicts any divergence (the runtime backstop for what the
  /// praft_lint D1/D2 rules guard statically).
  [[nodiscard]] uint64_t fingerprint() const { return fingerprint_; }

 private:
  struct ReplicaState {
    bool seen = false;
    consensus::LogIndex last_applied = 0;
    consensus::LogIndex last_commit_wm = 0;
    bool wm_seen = false;
    // Max hard state any sent message depended on ((term, vote) merged
    // lexicographically — a Paxos ballot; floor/aux/tail as plain maxima).
    consensus::HardState sent;
    bool sent_seen = false;
  };
  struct Reply {
    kv::Command cmd;
    uint64_t value = 0;
    bool ok = true;
  };
  struct Install {
    NodeId replica = kNoNode;
    consensus::LogIndex idx = 0;
    uint64_t store_fp = 0;
  };

  void violation(std::string what);
  void record(std::string event);
  static std::string describe(const kv::Command& cmd);
  /// Folds one observation word into the streaming fingerprint.
  void mix(uint64_t x);

  size_t trace_capacity_;
  std::deque<std::string> trace_;
  std::vector<std::string> violations_;

  // Agreement: position -> first command applied there (by any replica).
  std::map<consensus::LogIndex, kv::Command> chosen_;
  std::unordered_map<NodeId, ReplicaState> replicas_;
  std::vector<Reply> replies_;
  std::vector<Install> installs_;
  uint64_t restarts_ = 0;
  uint64_t fingerprint_ = 0x9e3779b97f4a7c15ull;
  consensus::LogIndex max_applied_ = 0;
  size_t memory_cap_ = 0;  // 0 = bounded-memory invariant disarmed
};

}  // namespace praft::chaos
