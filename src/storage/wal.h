#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "consensus/slot_table.h"
#include "consensus/snapshot.h"
#include "consensus/types.h"
#include "sim/resources.h"

namespace praft::storage {

/// What the write-ahead log keeps about one log position: the union of what
/// the four protocols must persist about it before a message depending on it
/// leaves the node. Raft/Raft* use (term, cmd); MultiPaxos uses the accepted
/// (ballot, cmd) plus the chosen flag; Mencius additionally persists the
/// per-slot revocation promise. One cell per position — a re-accept at a
/// higher ballot OVERWRITES the cell (the WAL coalesces at fsync
/// granularity), which is what bounds recovery replay to the live positions
/// above the snapshot floor rather than the raw write history. The WAL
/// stores cells by position, so a cell does not repeat its index.
struct WalCell {
  consensus::Term term = 0;       // entry term / accepted ballot round
  NodeId vnode = kNoNode;         // accepted ballot owner (ballot protocols)
  consensus::Term promised = -1;  // per-slot revocation promise (Mencius)
  NodeId pnode = kNoNode;
  bool decided = false;           // chosen/decided (Paxos-family finality)
  bool has_value = false;
  kv::Command cmd;
};
// ~932k WAL cells are live at the peak of sharded-write-paxos (as many as
// MultiPaxos instances), so 8 more bytes per cell cost ~7 MiB of peak RSS:
// a new field changes this assert on purpose, not peak_rss_mb by accident.
static_assert(sizeof(WalCell) == 72);

/// A WAL cell with its position: what protocols stage and what recovery
/// replays.
struct WalRecord : WalCell {
  consensus::LogIndex index = 0;
};

/// Everything a restarted node gets back from stable storage: the last
/// synced hard state, the newest durable snapshot, and the WAL suffix above
/// the snapshot floor (ascending index). NodeIface::recover rebuilds the
/// node's in-memory state from exactly this — nothing else survives.
struct DurableImage {
  consensus::HardState hard;
  consensus::Snapshot snap;
  std::vector<WalRecord> records;
};

/// What a recovery did, for invariant checking and bench reporting: replay
/// work must stay bounded by (wal tail − snapshot floor), which is the whole
/// point of snapshotting through the WAL.
struct RecoveryStats {
  bool recovered = false;
  size_t replayed = 0;                       // WAL records replayed
  consensus::LogIndex snapshot_floor = -1;   // durable snapshot coverage
  consensus::LogIndex wal_tail = -1;         // highest durable record index
};

/// Deterministic, simulation-backed stable storage for one replica: a hard
/// state file plus a write-ahead log with snapshot-based truncation. A node
/// reaches it only through its Env (consensus::Env::store), and the store
/// OUTLIVES the node object (a cluster replica's harness::NodeHost owns it),
/// which is what makes real crash-restart testable: ReplicaGroup::restart
/// destroys the node and rebuilds it purely from image().
///
/// Write model (write-ahead discipline made explicit):
///  * stage_*() buffers a mutation. Staged mutations are VOLATILE — a crash
///    (drop_unsynced) discards them.
///  * commit_through(seq) applies every mutation staged at or before `seq`
///    to the durable state, in staging order. The storage::Persister calls
///    it when a modeled fsync completes; protocols never call it directly.
///
/// fsync cost is charged through the per-store sim::SerialResource disk —
/// concurrent syncs queue, which is exactly how fsync discipline comes to
/// dominate throughput (Marandi et al.), and what the group-commit path in
/// the Persister exists to amortize.
class DurableStore {
 public:
  /// Sequence number of the most recently staged mutation (0 = none yet).
  [[nodiscard]] uint64_t staged_seq() const { return staged_seq_; }
  [[nodiscard]] bool dirty() const { return staged_seq_ > synced_seq_; }

  void stage_hard_state(const consensus::HardState& hs);
  void stage_record(WalRecord r);
  /// Durably drops every record with index > last_kept (Raft conflict-suffix
  /// erasure, snapshot-install log resets).
  void stage_truncate_after(consensus::LogIndex last_kept);
  /// Durably adopts `snap` and lets the WAL drop every record at or below
  /// its coverage — the snapshot substitutes for replaying them.
  void stage_snapshot(consensus::Snapshot snap);

  /// Makes every mutation staged at or before `seq` durable.
  void commit_through(uint64_t seq);
  /// Crash semantics: staged-but-unsynced mutations are lost.
  void drop_unsynced();

  /// True once anything was ever synced (a restart should recover() only
  /// when there is durable state to recover from).
  [[nodiscard]] bool has_state() const { return any_synced_; }
  [[nodiscard]] DurableImage image() const;

  [[nodiscard]] const consensus::HardState& hard_state() const {
    return hard_;
  }
  [[nodiscard]] const consensus::Snapshot& snapshot() const { return snap_; }
  [[nodiscard]] consensus::LogIndex snapshot_floor() const {
    return snap_.valid() ? snap_.last_index : -1;
  }
  /// Highest durable record index, or the snapshot floor when the WAL is
  /// empty (the recovery replay bound's upper end).
  [[nodiscard]] consensus::LogIndex wal_tail() const {
    return wal_.empty() ? snapshot_floor() : wal_.back_index();
  }
  [[nodiscard]] size_t wal_records() const { return wal_.size(); }

  /// The modeled disk this store syncs through (queueing = fsync backlog).
  [[nodiscard]] sim::SerialResource& disk() { return disk_; }

  // Lifetime counter for bench/diagnostics.
  [[nodiscard]] uint64_t syncs() const { return syncs_; }
  /// Counts one completed fsync batch (called by the Persister).
  void note_sync() { ++syncs_; }

 private:
  struct Truncate {
    consensus::LogIndex last_kept;
  };
  using StagedOp =
      std::variant<consensus::HardState, WalRecord, Truncate,
                   consensus::Snapshot>;

  void apply(const StagedOp& op);

  // Durable state.
  consensus::HardState hard_;
  consensus::Snapshot snap_;
  // The WAL, one cell per position. Raft and Raft* write contiguous runs;
  // MultiPaxos and Mencius leave gaps and may write below the front.
  consensus::SlotTable<WalCell> wal_;
  bool any_synced_ = false;

  // Staged (volatile) mutations, in staging order. base_seq_ is the sequence
  // number of the mutation before staged_.front().
  std::vector<StagedOp> staged_;
  uint64_t base_seq_ = 0;
  uint64_t staged_seq_ = 0;
  uint64_t synced_seq_ = 0;

  sim::SerialResource disk_;
  uint64_t syncs_ = 0;
};

}  // namespace praft::storage
