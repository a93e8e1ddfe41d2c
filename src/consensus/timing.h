#pragma once

#include <cstddef>

#include "common/types.h"

namespace praft::consensus {

/// Timing knobs shared by every protocol in the repo — the paper's thesis is
/// that MultiPaxos, Raft, Raft* and Mencius are structurally parallel, and
/// their leader-failure detection / heartbeat / batching machinery is
/// literally the same code (this layer). Defaults are WAN-scale (the paper's
/// testbed spans 25–292 ms RTTs); unit tests shrink them.
///
/// Per-protocol Options structs inherit from this, so protocol code and
/// tests keep writing `opt.election_timeout_min = ...` while the definition
/// lives in exactly one place.
struct TimingOptions {
  /// Randomized leader-failure timeout window (Raft elections, Paxos
  /// Prepare retries). Mencius ignores these: every replica already leads
  /// its own residue class.
  Duration election_timeout_min = msec(1200);
  Duration election_timeout_max = msec(2400);
  /// Leader keep-alive tick (Raft/Raft* empty AppendEntries, Paxos
  /// Heartbeat, Mencius StatusBeat).
  Duration heartbeat_interval = msec(150);
  /// Leader batching delay (etcd-style): submissions within this window
  /// ride one replication message. 0 means flush on the next event-loop
  /// turn.
  Duration batch_delay = msec(1);
  /// Flush/packetization cap: no single replication message carries more
  /// than this many log entries.
  size_t max_entries_per_batch = 4096;
  /// Byte-budget flush threshold: when the pending batch reaches this many
  /// encoded wire bytes, the Batcher expedites the flush to the next
  /// event-loop turn instead of waiting out the delay — large values keep a
  /// 4 KB-value workload from hoarding megabytes behind a 1 ms timer.
  /// 0 disables the byte trigger.
  size_t batch_flush_bytes = 256 * 1024;
  /// Leader-memory backpressure cap: when > 0, the Batcher stops accepting
  /// new submissions (can_accept() goes false, protocols return -1 from
  /// submit and the harness retries the client op later) once
  /// pending + in-flight bytes reach this bound — a slow or partitioned
  /// follower can stall the pipe, but it cannot bloat the leader's pending
  /// queue unboundedly. 0 disables the cap.
  size_t batch_backpressure_bytes = 8 * 1024 * 1024;
  /// Replication pipelining (consensus::PeerPipeline): when on, a leader
  /// keeps multiple replication batches in flight per peer — up to
  /// pipeline_max_batches batches and an AIMD-adapted byte window capped at
  /// pipeline_inflight_bytes — instead of one batch per ack round-trip.
  /// Off = stop-and-wait (at most one outstanding batch per peer), kept as
  /// the bench baseline.
  bool pipeline = true;
  size_t pipeline_inflight_bytes = 1024 * 1024;
  /// Bookkeeping bound on outstanding batches per peer, NOT the flow
  /// control — the byte window above is. Must stay above flush-rate x RTT
  /// (small flushes every ~1-10 ms over a 292 ms aws5 RTT put
  /// ~300 batches legitimately in flight); 16 here measurably throttled
  /// LAN-tier throughput before the byte window ever engaged.
  size_t pipeline_max_batches = 512;
  /// Loss-detection timeout: when a peer's oldest un-acked batch is older
  /// than this, the leader rolls its send cursor back and retransmits from
  /// the lowest in-flight position (windowed retransmit probe) instead of
  /// blanket per-tick resends. Default sits above the worst modeled WAN RTT
  /// (aws5 tops out at 292 ms) so healthy links never probe spuriously.
  /// It is the floor of an RTT-adaptive timeout (Jacobson/Karels, see
  /// consensus::PeerPipeline): max(this, srtt + 4 * rttvar), this value
  /// alone before the first ack sample — links whose acks legitimately slow
  /// down (CPU saturation, long queues) stop probing spuriously.
  Duration pipeline_retransmit_timeout = msec(600);
  /// Log compaction trigger: when > 0, a node checkpoints the state machine
  /// and discards the applied log prefix as soon as more than this many
  /// applied-but-uncompacted entries are resident. 0 disables it (only the
  /// NodeIface::compact verb compacts). Requires snapshot state hooks
  /// (installed by the harness adapter); protocols check after every apply
  /// advance, so the retained applied prefix stays <= the cap between events.
  size_t compaction_log_cap = 0;
  /// Modeled fsync duration for the durable store (src/storage): every
  /// write a node makes to its hard state file / write-ahead log becomes
  /// durable only when a sync of this duration completes on the node's disk
  /// resource. 0 models free, instantaneous fsyncs — writes commit
  /// synchronously and event trajectories match a diskless run exactly
  /// (the tier-1 default), while the durable image still accumulates so
  /// crash-restart works.
  Duration fsync_duration = 0;
  /// Group-commit window: syncs demanded within this delay coalesce into one
  /// fsync (the storage::Persister reuses the Batcher's arm-once scheduling
  /// discipline). 0 = sync immediately on each demand. Only meaningful with
  /// fsync_duration > 0.
  Duration sync_batch_delay = 0;
  /// TEST-ONLY fault injection: skip the hard-state fsync barrier before the
  /// phase-1 "vote" reply (Raft/Raft* VoteReply, MultiPaxos PrepareOk,
  /// Mencius RevPrepareOk). The reply leaves the node while the promise it
  /// depends on is still volatile — the classic missing-fsync durability
  /// bug. The chaos checker must convict it within 50 seeds (crash-restart
  /// faults enabled). Never set this outside tests.
  bool unsafe_skip_vote_fsync = false;
  /// TEST-ONLY fault injection: when > 0, the *commit-counting* paths treat
  /// this many acknowledgements as a quorum instead of a true majority
  /// (elections and Prepare phases are untouched). n/2 on a 5-node group
  /// recreates the classic "commit without majority" bug; the chaos harness
  /// uses it to prove its invariant checker catches real violations.
  /// Never set this outside tests.
  int unsafe_commit_quorum = 0;

  /// Quorum used by commit counting: the injected unsafe value when set,
  /// otherwise `true_majority` (the group's real majority).
  [[nodiscard]] int commit_quorum(int true_majority) const {
    return unsafe_commit_quorum > 0 ? unsafe_commit_quorum : true_majority;
  }

  /// The compaction policy all four protocols share: compact now when the
  /// node's `compactable` (applied-but-uncompacted) entries exceed
  /// compaction_log_cap, or when `force`d (the NodeIface::compact verb) —
  /// and never with nothing to compact.
  [[nodiscard]] bool compaction_due(size_t compactable, bool force) const {
    if (compactable == 0) return false;
    return force ||
           (compaction_log_cap > 0 && compactable > compaction_log_cap);
  }
};

}  // namespace praft::consensus
