#pragma once

#include <deque>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "consensus/applier.h"
#include "consensus/batcher.h"
#include "consensus/env.h"
#include "consensus/group.h"
#include "consensus/log.h"
#include "consensus/node_iface.h"
#include "consensus/pipeline.h"
#include "consensus/timer.h"
#include "consensus/timing.h"
#include "consensus/types.h"
#include "mencius/messages.h"
#include "net/packet.h"
#include "storage/persister.h"

namespace praft::mencius {

struct Options : consensus::TimingOptions {
  // The shared heartbeat_interval drives the StatusBeat/maintenance tick
  // (Mencius has no single leader, so the election timeouts are unused).
  /// Stale undecided slots of an unresponsive owner are revoked after this.
  /// (Own-proposal retransmission is timeout-gated per colleague by the
  /// shared pipeline — see TimingOptions::pipeline_retransmit_timeout.)
  Duration revoke_timeout = msec(2500);
  /// Ask an owner for authoritative slot state when a gap stalls execution
  /// longer than this.
  Duration learn_after = msec(500);
  /// Ablation A2 (paper §A.4): the correct port applies the Mencius Phase2b
  /// delta to EVERY Raft* action that implies Phase2b — including the
  /// owner's own propose path, which must mark its own skips executable
  /// immediately. A hand-port that only patched ReceiveAppend (false) leaves
  /// the owner's own skip slots undecided locally and stalls its execution.
  bool decide_own_skips = true;
};

/// Raft*-Mencius / Coordinated Raft* (paper §A.4, Appendix B.6): the slot
/// space is partitioned round-robin, every replica is the *default leader*
/// of its residue class and commits its own slots in one round trip from a
/// majority. Skip tags let idle replicas cede their turns instantly, and a
/// revocation path (classic phase 1/2 at ballots > 0) recovers the slots of
/// a crashed owner. Execution is in slot order; the commutativity
/// optimization acknowledges an op early when every earlier unexecuted slot
/// holds a command it commutes with (paper §5.2).
///
/// Safety of the decided-watermark fast path: an owner proposes at most one
/// value per own slot at ballot 0, so a replica holding a ballot-0 value for
/// slot i may treat it as decided once the owner's watermark passes i —
/// UNLESS the slot was revoked (decided at a ballot > 0, possibly with a
/// different value). Owners therefore publish `rev_floor`, and slots at or
/// below it decide only through explicit authoritative messages
/// (LearnVals / the revoker's decide broadcast).
///
/// Sparse slot storage, the maintenance tick, submission batching and the
/// in-order exactly-once apply watermark come from the shared consensus
/// runtime.
class MenciusNode : public consensus::NodeIface {
 public:
  /// The Env's store (null: diskless) is this node's stable storage:
  /// per-slot accepted values and revocation promises, the own-slot cursor
  /// and revocation floors persist through it; acks wait on the fsync
  /// barrier.
  MenciusNode(consensus::Group group, consensus::Env& env, Options opt = {});

  void start() override;
  void on_packet(const net::Packet& p) override;
  [[nodiscard]] std::optional<size_t> entries_in(
      const net::Packet& p) const override {
    const auto* m = net::payload_as<Message>(p);
    if (m == nullptr) return std::nullopt;
    return entry_count(*m);
  }

  /// Callbacks:
  ///  apply(index, cmd)  — in slot order, exactly once per slot;
  ///  acked(cmd)         — the moment this node's OWN proposal may be
  ///                       acknowledged to the client (commit + commute
  ///                       check), possibly before it executes.
  void set_apply(consensus::ApplyFn fn) override { apply_ = std::move(fn); }
  using AckFn = std::function<void(const kv::Command&)>;
  void set_acked(AckFn fn) { acked_ = std::move(fn); }

  void set_state_hooks(consensus::StateCapture capture,
                       consensus::StateRestore restore) override {
    applier_.set_state_hooks(std::move(capture), std::move(restore));
  }

  /// Forces a checkpoint now (Mencius prunes slots at apply time; compaction
  /// here checkpoints the store and trims the retained decision history).
  void compact() override { maybe_compact(/*force=*/true); }
  [[nodiscard]] LogIndex compaction_floor() const override {
    return snap_.valid() ? snap_.last_index : -1;
  }
  [[nodiscard]] size_t compactable_entries() const override {
    return history_above_floor();
  }
  [[nodiscard]] size_t resident_log_entries() const override {
    return slots_.size() + decided_history_.size();
  }
  [[nodiscard]] LogIndex applied_index() const override {
    return applier_.applied();
  }

  /// Mencius's hard state: the highest revocation ballot promised anywhere
  /// (term), the own-slot cursor (floor — an owner must never re-propose a
  /// different value on a slot it already used at ballot 0), the revocation
  /// round counter (aux) and the own revoked floor (tail).
  [[nodiscard]] consensus::HardState hard_state() const override {
    return consensus::HardState{max_promised_round_, kNoNode, next_own_,
                                rev_round_, own_rev_floor_};
  }
  storage::RecoveryStats recover(const storage::DurableImage& img) override;

  /// Proposes a command on this node's next own slot. Always succeeds
  /// (every replica is a leader for its residue class). Returns the slot.
  LogIndex submit(const kv::Command& cmd) override;

  /// Every replica is the default leader of its own residue class.
  [[nodiscard]] bool is_leader() const override { return true; }
  [[nodiscard]] NodeId leader_hint() const override { return group_.self; }
  [[nodiscard]] bool leaderless() const override { return true; }
  /// The contiguous executed prefix (Mencius has no global commit index;
  /// the watermark trails execution).
  [[nodiscard]] LogIndex commit_index() const override {
    return applier_.commit_index();
  }

  [[nodiscard]] NodeId id() const override { return group_.self; }
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] LogIndex next_own() const { return next_own_; }
  [[nodiscard]] NodeId owner_of(LogIndex i) const {
    return group_.members[static_cast<size_t>(i) % group_.members.size()];
  }
  [[nodiscard]] int64_t slots_skipped() const { return slots_skipped_; }

 private:
  enum class St : uint8_t {
    kEmpty = 0,
    kValued,    // holds a value accepted at `bal`, not known decided
    kDecided,   // final (skip => no-op command)
  };
  struct Slot {
    St st = St::kEmpty;
    bool own_pending_ack = false;  // our proposal, client not yet acked
    kv::Command cmd;
    Ballot bal;        // ballot of the held value ({0, owner} = fast path)
    Ballot promised;   // revocation promise
    consensus::QuorumTracker acks;  // proposer side (owner or revoker)
    Time proposed_at = 0;
  };
  // A slot is a SlotTable cell like a MultiPaxos instance, ~932k of which
  // are live at the peak of sharded-write-paxos, where 8 more bytes per cell
  // cost ~7 MiB: a new field changes this assert on purpose, not
  // peak_rss_mb by accident.
  static_assert(sizeof(Slot) == 96);

  void on_accept_own(const AcceptOwn& m);
  void on_accept_own_ok(const AcceptOwnOk& m);
  void on_accept_own_rej(const AcceptOwnRej& m);
  void on_skip_range(const SkipRange& m);
  void on_status(const StatusBeat& m);
  void on_learn_req(const LearnReq& m);
  void on_learn_vals(const LearnVals& m);
  void on_rev_prepare(const RevPrepare& m);
  void on_rev_prepare_ok(const RevPrepareOk& m);
  void on_rev_accept(const RevAccept& m);
  void on_rev_accept_ok(const RevAcceptOk& m);
  void on_snapshot_xfer(const SnapshotXfer& m);

  void maybe_compact(bool force);
  /// Mirrors slot `i`'s full durable state into the write-ahead log.
  void persist_slot(LogIndex i) {
    if (!recovering_) slots_.persist(i);
  }
  /// One revocation phase-2 acknowledgement for slot `i` (remote, or self
  /// once the self-accept's fsync barrier clears); decides on majority and
  /// collects the decide notice into `lv`.
  void note_rev_ack(const consensus::Ballot& bal, LogIndex i, NodeId who,
                    LearnVals& lv);
  /// Decision-history entries above the checkpoint floor — what the next
  /// checkpoint would absorb (the bounded-memory invariant caps this).
  [[nodiscard]] size_t history_above_floor() const;
  /// Whether a checkpoint covers executed slot `i`, which has aged out of
  /// the decision history; checkpoints now first if it lies above the last.
  bool checkpoint_covers(LogIndex i);
  /// Ships our checkpoint to `to` (stalled learner / stale revoker).
  void send_snapshot(NodeId to);
  /// True when every slot of the active revocation is settled locally.
  [[nodiscard]] bool revocation_done() const;

  void flush();
  /// Drains `peer`'s outbox through its in-flight window: queued skip
  /// announcements first (tiny, ack-less), then AcceptOwn batches while the
  /// window has room.
  void pump_peer(NodeId peer);
  void broadcast(Message m);
  void maintenance();  // retransmit, learn-requests, revocation triggers
  void note_owner_watermark(NodeId owner, LogIndex decided_floor,
                            LogIndex rev_floor);
  void skip_own_upto(LogIndex boundary);  // skip unused own slots < boundary
  void decide(LogIndex i, const kv::Command& cmd);
  /// Adds `delta` to the commutativity counters of `cmd`'s key (a count
  /// back at zero is erased, so the maps stay the size of the backlog).
  void count_op(const kv::Command& cmd, int delta);
  void advance_floors();
  void advance_floors_inner();
  void on_slot_applied(LogIndex i, const kv::Command& cmd);
  void try_ack_own();
  void start_revocation(NodeId owner, LogIndex lo, LogIndex hi);
  [[nodiscard]] bool commutes_below(LogIndex i, const kv::Command& cmd) const;
  Slot& slot(LogIndex i);
  [[nodiscard]] const Slot* slot_if(LogIndex i) const;
  /// Executed slot's decided command from the retained history (nullptr when
  /// the index predates the history window). O(log |history|): entries are
  /// appended in slot order.
  [[nodiscard]] const kv::Command* decided_at(LogIndex i) const;
  /// Smallest own slot not known decided: a cursor that only moves forward
  /// (afloor() and next_own_ only rise, and decided is final).
  [[nodiscard]] LogIndex own_decided_floor();
  /// Exclusive execution floor: slots < afloor() are executed.
  [[nodiscard]] LogIndex afloor() const { return applier_.next_index(); }

  consensus::Group group_;
  consensus::Env& env_;
  Options opt_;
  storage::Persister persister_;
  int rank_;
  int n_;
  consensus::Term max_promised_round_ = 0;  // scalar over all slot promises
  bool recovering_ = false;

  consensus::SparseLog<Slot> slots_;  // sparse; pruned below the apply floor
  LogIndex info_floor_ = 0;          // slots < info_floor_ have st != kEmpty
  LogIndex next_own_ = 0;            // smallest unused own slot
  LogIndex max_seen_ = -1;           // largest slot index observed anywhere
  LogIndex own_rev_floor_ = -1;      // highest own slot known revoked
  LogIndex own_decided_ = -1;        // own_decided_floor() cursor

  // Shared runtime machinery. Mencius slots are 0-based, so the applier
  // starts at -1; the status/maintenance beat rides the heartbeat interval.
  consensus::PeriodicTimer status_;
  consensus::Batcher batcher_;
  consensus::Applier applier_;

  // Per-owner published watermarks, plus the auto-decide cursor of
  // note_owner_watermark: the owner's slots in [afloor(), scan) hold no
  // ballot-0 value of its left to decide (on_accept_own rewinds it when a
  // value lands below).
  struct OwnerView {
    LogIndex floor = 0;
    LogIndex rev_floor = -1;
    LogIndex scan = -1;
    Time last_heard = 0;
  };
  std::unordered_map<NodeId, OwnerView> owners_;

  // Commutativity bookkeeping over unexecuted-but-valued slots.
  std::unordered_map<uint64_t, int> unapplied_ops_;
  std::unordered_map<uint64_t, int> unapplied_writes_;

  // Pending own proposals not yet flushed.
  std::vector<OwnItem> pending_;
  std::vector<std::pair<LogIndex, LogIndex>> pending_skips_;

  // Per-colleague replication stream: flushed proposals/skips queue here and
  // drain through the shared in-flight window (consensus::PeerPipeline), so
  // a slow or partitioned colleague no longer stalls — or gets blanket
  // re-broadcasts of — everyone else's stream. Executed items are pruned
  // from the backlog (a peer that far behind learns via watermarks/LearnReq).
  struct PeerOut {
    std::deque<OwnItem> items;
    std::deque<std::pair<LogIndex, LogIndex>> skips;
  };
  std::unordered_map<NodeId, PeerOut> outbox_;
  consensus::PeerPipeline pipe_;

  // Own proposals whose clients have not been acknowledged yet.
  std::vector<LogIndex> own_unacked_;

  // Decided values retained after execution so revocation prepares can still
  // report them (bounded ring; see on_rev_prepare). Compaction trims it
  // against the checkpoint: aged-out ranges are served as snapshots.
  static constexpr size_t kHistoryCap = 65536;
  std::deque<std::pair<LogIndex, kv::Command>> decided_history_;

  // Latest checkpoint (covers all slots <= snap_.last_index).
  consensus::Snapshot snap_;

  // Active revocation this node is running (one at a time).
  struct Revocation {
    bool active = false;
    Ballot bal;
    NodeId owner = kNoNode;
    LogIndex lo = 0, hi = 0;
    consensus::QuorumTracker promises;
    std::map<LogIndex, RevAccepted> best;  // highest-ballot accepted per slot
    std::map<LogIndex, consensus::QuorumTracker> acks;  // phase-2, per slot
    bool phase2 = false;
  } rev_;
  consensus::Term rev_round_ = 0;  // ballot rounds used for revocations
  Time last_progress_ = 0;

  int64_t slots_skipped_ = 0;
  bool advancing_ = false;

  consensus::ApplyFn apply_;
  AckFn acked_;
};

}  // namespace praft::mencius
