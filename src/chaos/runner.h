#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "chaos/schedule_gen.h"
#include "common/types.h"

namespace praft::chaos {

/// One chaos run: a protocol name, a seed, and the knobs the CLI exposes.
/// The per-run flags that set those knobs print and parse through one table
/// (run_flags / parse_run_flag in chaos/mutator.h).
struct RunOptions {
  std::string protocol = "raft";   // any consensus::protocol_names() entry
  uint64_t seed = 1;
  int num_replicas = 5;
  /// Consensus groups. 1 runs the classic single-group cluster; > 1 runs a
  /// sharded deployment of `groups` independent groups over `num_replicas`
  /// machines (every machine hosts one replica of every group, so each fault
  /// window hits replicas serving several groups at once). Faults then
  /// target MACHINES: the schedule's replica indices are machine indices,
  /// and crash/partition/isolate windows apply to every co-located replica.
  /// Invariants run per group, plus the cross-group routing invariant.
  int groups = 1;
  /// Arms TimingOptions::unsafe_commit_quorum = n/2 (commit without a true
  /// majority) to prove the invariant checker catches real violations.
  bool inject_quorum_bug = false;
  /// When > 0, runs the cluster with checkpoint-driven log compaction
  /// (TimingOptions::compaction_log_cap) and arms the bounded-memory
  /// invariant at the same cap. Lagging replicas then catch up via snapshot
  /// transfer, and the checker verifies exactly-once apply, linearizability
  /// and snapshot soundness ACROSS installs.
  size_t compaction_log_cap = 0;
  /// Enables kCrashRestart faults: replicas are destroyed mid-run and
  /// rebuilt purely from their durable stores, with the recovery invariants
  /// (no hard-state regression, bounded replay) checked on every restart.
  /// Also arms real fsync costs (see fsync/sync_batch below) so there is a
  /// genuine unsynced window for crashes to bite.
  bool crash_restarts = false;
  /// Arms TimingOptions::unsafe_skip_vote_fsync (the vote reply leaves
  /// before its promise hits disk) plus guaranteed election-churn +
  /// crash-restart windows, to prove the checker convicts the classic
  /// missing-fsync bug. Implies crash_restarts.
  bool inject_persistence_bug = false;
  /// Modeled fsync cost / group-commit window used when crash_restarts or
  /// inject_persistence_bug is set (0/0 otherwise keeps trajectories
  /// bit-identical to the pre-durability harness). --fsync=0
  /// --sync-batch=0 restarts replicas over zero-cost stores, the mode every
  /// registry default and lan-write-raft run in.
  Duration fsync = msec(2);
  Duration sync_batch = msec(1);
  /// WAN mode: paper-scale election/heartbeat timing (1.2-2.4 s / 150 ms)
  /// over the aws5 geo matrix, so fault windows land while many batches are
  /// in flight per peer — the replication-pipelining stress profile. Off:
  /// the LAN-ish timing that keeps one run in milliseconds of wall clock.
  bool wan = false;
  ScheduleLimits limits;
  /// Fault-free tail after the last fault window: clients drain, replicas
  /// re-converge, then invariants are finalized.
  Duration quiesce = sec(10);
  /// When set, runs this exact schedule instead of expanding `seed` through
  /// generate_schedule — the evolved-corpus path, where a mutated schedule
  /// is no longer expressible as a seed. The schedule's own `seed` field
  /// seeds the cluster RNG (for seed-expanded runs the two are equal).
  std::optional<Schedule> schedule;
};

struct RunResult {
  bool ok = true;
  uint64_t seed = 0;
  std::string protocol;
  std::vector<std::string> violations;
  std::vector<std::string> trace;      // recent events before the violation
  std::string schedule;                // human-readable generated schedule
  std::string repro;                   // exact CLI command to replay this run
  int64_t log_length = 0;              // highest agreed index
  uint64_t client_ops = 0;             // completed client operations
  uint64_t snapshot_installs = 0;      // catch-ups served by state transfer
  uint64_t restarts = 0;               // crash-restarts performed
  uint64_t leader_changes = 0;         // leadership handoffs observed
  uint64_t revocations = 0;            // Mencius revocations started
  uint64_t pipeline_rollbacks = 0;     // in-flight window rollbacks
  /// Order-sensitive hash of every checker observation (applies, watermarks,
  /// replies, sent states, installs, restarts, trace notes; per-group
  /// fingerprints folded in group order for sharded runs). Equal options
  /// must yield an equal fingerprint — `chaos_runner --verify-determinism`
  /// runs every seed twice and convicts any divergence.
  uint64_t trace_fingerprint = 0;
};

/// The ScheduleLimits a RunOptions actually generates under: `opt.limits`
/// with the replica count folded in and the guaranteed-fault knobs implied
/// by the bug-injection / crash-restart flags armed.
[[nodiscard]] ScheduleLimits effective_limits(const RunOptions& opt);

/// The schedule `run_one(opt)` would execute: the explicit one when
/// `opt.schedule` is set, else the seed expanded under effective_limits.
[[nodiscard]] Schedule schedule_of(const RunOptions& opt);

/// Coverage score of a completed run: rare-path events dominate (leader
/// churn, Mencius revocations, snapshot transfers, crash-restarts) so
/// corpus persistence and schedule evolution both concentrate the fuzzer
/// on interesting interleavings.
[[nodiscard]] uint64_t coverage_score(const RunResult& r);

/// Builds a cluster for `opt.protocol`, generates the seed's fault schedule
/// and workload, runs it, and checks all trace invariants. Deterministic:
/// the same (protocol, seed, options) always yields the same result. A
/// CheckFailure thrown while building or running the cluster fails the run
/// (its message is the violation) instead of escaping.
[[nodiscard]] RunResult run_one(const RunOptions& opt);

}  // namespace praft::chaos
