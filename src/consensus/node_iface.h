#pragma once

#include <optional>

#include "consensus/snapshot.h"
#include "consensus/stats.h"
#include "consensus/types.h"
#include "net/packet.h"
#include "storage/wal.h"

namespace praft::consensus {

/// Runtime-polymorphic face of a consensus protocol node. This is the
/// paper's structural-parallelism claim made executable: every protocol in
/// the repo (Raft, Raft*, MultiPaxos, Mencius) drives the same replicated
/// state machine through the same six verbs, so harness servers, clusters
/// and bench binaries can pick a protocol by name at runtime (see
/// consensus/registry.h) instead of being stamped out per protocol type.
class NodeIface {
 public:
  /// `stats` is the block of the Env the node talks through.
  explicit NodeIface(const Stats& stats) : stats_(stats) {}
  virtual ~NodeIface() = default;

  /// Arms timers. Call exactly once after construction.
  virtual void start() = 0;

  /// Feeds a network packet whose payload holds this protocol's message.
  virtual void on_packet(const net::Packet& p) = 0;

  /// How many log entries `p` carries when its payload is this protocol's
  /// message (the harness bills each one), or std::nullopt when the payload
  /// belongs to another family. Harness adapters bill and drop foreign
  /// packets by it, so a lease message reaching a plain replica never gets
  /// to on_packet.
  [[nodiscard]] virtual std::optional<size_t> entries_in(
      const net::Packet& p) const = 0;

  /// Proposes `cmd`. Returns the assigned log position, or -1 when this
  /// node cannot propose right now (not the leader).
  virtual LogIndex submit(const kv::Command& cmd) = 0;

  /// Registers the in-order apply callback (exactly once per position).
  virtual void set_apply(ApplyFn fn) = 0;

  /// Installs the snapshot capture/restore hooks on the node's Applier (the
  /// harness adapter that owns the kv::Store calls this once). Without them
  /// the node cannot compact or install snapshots; default no-op for nodes
  /// without an Applier.
  virtual void set_state_hooks(StateCapture capture, StateRestore restore) {
    (void)capture;
    (void)restore;
  }

  /// Compaction verb: checkpoint the state machine at the applied watermark
  /// and discard the covered log prefix now, regardless of the
  /// TimingOptions::compaction_log_cap. No-op when state hooks are absent
  /// or nothing is compactable.
  virtual void compact() {}

  /// Highest position discarded from in-memory log storage (snapshot
  /// coverage). 0 / -1 before the first compaction, protocol start
  /// dependent.
  [[nodiscard]] virtual LogIndex compaction_floor() const { return 0; }

  /// Applied-but-not-yet-compacted positions — what the compactor is
  /// allowed to reclaim. The bounded-memory invariant caps this.
  [[nodiscard]] virtual size_t compactable_entries() const { return 0; }

  /// Log/slot entries retained above the compaction floor, in memory or in
  /// the store (a store-backed Raft log keeps its durable entries only as
  /// WAL cells) — what the bounded-memory invariant caps (diagnostics +
  /// bench).
  [[nodiscard]] virtual size_t resident_log_entries() const { return 0; }

  /// The node's current in-memory hard state mapped onto the shared shape
  /// (see consensus::HardState for the per-protocol field table). Default:
  /// an all-defaults state (protocols without durable state).
  [[nodiscard]] virtual HardState hard_state() const { return {}; }

  /// Rebuilds this node's protocol state purely from its durable image:
  /// hard state, newest snapshot (installed through the Applier's state
  /// hooks, which must already be set), and a WAL replay of everything above
  /// the snapshot floor. Called once, after set_apply/set_state_hooks and
  /// before start(). Default: diskless node, nothing to recover.
  virtual storage::RecoveryStats recover(const storage::DurableImage& img) {
    (void)img;
    return {};
  }

  /// The counters of the Env this node talks through: its own counts plus
  /// those of every earlier node on the same Env (a cluster replica's
  /// previous incarnations).
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// stats().pipeline_rollbacks / stats().revocations_started, under the
  /// names praft_bench reads.
  [[nodiscard]] int64_t pipeline_rollbacks() const {
    return stats_.pipeline_rollbacks;
  }
  [[nodiscard]] int64_t revocations_started() const {
    return stats_.revocations_started;
  }

  [[nodiscard]] virtual bool is_leader() const = 0;
  [[nodiscard]] virtual NodeId leader_hint() const = 0;
  /// True for protocols with no single elected leader (Mencius: every
  /// replica owns a residue class). Harnesses use this instead of matching
  /// protocol names, so a new table protocol inherits the right handling.
  [[nodiscard]] virtual bool leaderless() const { return false; }
  /// Highest position known committed/chosen-contiguously.
  [[nodiscard]] virtual LogIndex commit_index() const = 0;
  /// Highest position delivered to the state machine (== commit_index for
  /// gap-free protocols; MultiPaxos/Mencius may trail while repairing).
  [[nodiscard]] virtual LogIndex applied_index() const {
    return commit_index();
  }
  [[nodiscard]] virtual NodeId id() const = 0;

  /// Kicks off an immediate leadership attempt (no-op for leaderless
  /// protocols like Mencius, where every replica owns a residue class).
  virtual void force_election() {}

 private:
  const Stats& stats_;
};

}  // namespace praft::consensus
