#pragma once

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
#include "net/packet.h"
#include "paxos/messages.h"
#include "storage/persister.h"

namespace praft::paxos {

struct Options : consensus::TimingOptions {};

/// MultiPaxos per the paper's Fig. 1 / Appendix B.1: a two-phase protocol
/// where the phase-1 of many instances is batched ("a server becomes leader")
/// and phase-2 runs one (batched) round trip per chosen value. Unlike Raft,
/// instances commit out of order; execution still applies the contiguous
/// chosen prefix in order. A proposer overwrites accepted (ballot, value)
/// pairs and never erases them — the behaviour Raft* restores (paper §3).
///
/// Sparse instance storage, the election timer, leader heartbeats, batching
/// and the chosen-floor apply watermark come from the shared consensus
/// runtime.
class PaxosNode : public consensus::NodeIface {
 public:
  /// The Env's store (null: diskless) is this node's stable storage: the
  /// promised ballot and every accepted (ballot, value) pair persist through
  /// it; PrepareOk / AcceptOk replies wait on the fsync barrier
  /// (storage::Persister).
  PaxosNode(consensus::Group group, consensus::Env& env, Options opt = {});

  void start() override;
  void on_packet(const net::Packet& p) override;
  [[nodiscard]] std::optional<size_t> entries_in(
      const net::Packet& p) const override {
    const auto* m = net::payload_as<Message>(p);
    if (m == nullptr) return std::nullopt;
    return entry_count(*m);
  }

  /// Leader-only: assigns the command the next free instance. Returns the
  /// instance id, or -1 when not leader.
  LogIndex submit(const kv::Command& cmd) override;

  void set_apply(consensus::ApplyFn fn) override {
    applier_.set_apply(std::move(fn));
  }

  void set_state_hooks(consensus::StateCapture capture,
                       consensus::StateRestore restore) override {
    applier_.set_state_hooks(std::move(capture), std::move(restore));
  }

  /// Forces a checkpoint + instance pruning at the applied floor now.
  void compact() override { maybe_compact(/*force=*/true); }
  [[nodiscard]] LogIndex compaction_floor() const override {
    return instances_.floor();
  }
  [[nodiscard]] size_t compactable_entries() const override {
    return static_cast<size_t>(applier_.applied() - instances_.floor());
  }
  [[nodiscard]] size_t resident_log_entries() const override {
    return instances_.size();
  }
  [[nodiscard]] bool is_leader() const override {
    return phase1_succeeded_ && ballot_.node == group_.self;
  }
  [[nodiscard]] NodeId leader_hint() const override { return leader_; }
  [[nodiscard]] Ballot ballot() const { return ballot_; }
  /// All instances <= this are chosen (contiguous watermark).
  [[nodiscard]] LogIndex commit_floor() const {
    return applier_.commit_index();
  }
  [[nodiscard]] LogIndex commit_index() const override {
    return commit_floor();
  }
  [[nodiscard]] LogIndex applied_index() const override {
    return applier_.applied();
  }

  /// MultiPaxos's hard state: the promise (ballot as term+vote) plus the
  /// accepted tail (monotone — acceptors never un-accept).
  [[nodiscard]] consensus::HardState hard_state() const override {
    return consensus::HardState{ballot_.round, ballot_.node, -1, 0, log_tail_};
  }
  storage::RecoveryStats recover(const storage::DurableImage& img) override;

  [[nodiscard]] NodeId id() const override { return group_.self; }
  [[nodiscard]] bool chosen_at(LogIndex i) const;
  [[nodiscard]] const kv::Command* value_at(LogIndex i) const;

  void force_election() override { start_prepare(); }

 private:
  struct Instance {
    Ballot bal;
    kv::Command cmd;
    bool has = false;
    bool chosen = false;
    consensus::QuorumTracker acks;  // acceptors (incl. self) at `bal`

    /// Accepts at `b`. A ballot change restarts the tally, so it counts only
    /// acks at `bal`: a leader tallies at its own ballot, which its
    /// instances keep for as long as it leads.
    void accept_at(const Ballot& b) {
      if (bal == b) return;
      bal = b;
      acks.clear();
    }
  };
  // ~932k instances are live at the peak of sharded-write-paxos, so 8 more
  // bytes per instance cost ~7 MiB of peak RSS: a new field changes this
  // assert on purpose, not peak_rss_mb by accident.
  static_assert(sizeof(Instance) == 72);

  void on_prepare(const Prepare& m);
  void on_prepare_ok(const PrepareOk& m);
  void on_accept(const AcceptBatch& m);
  void on_accept_ok(const AcceptOkBatch& m);
  void on_reject(const Reject& m);
  void on_heartbeat(const Heartbeat& m);
  void on_learn_request(const LearnRequest& m);
  void on_learn_values(const LearnValues& m);
  void on_snapshot_transfer(const SnapshotTransfer& m);

  void maybe_compact(bool force);
  /// Mirrors instance `i`'s accepted/chosen state into the write-ahead log.
  void persist_inst(LogIndex i) {
    if (!recovering_) instances_.persist(i);
  }
  /// Adopts `snap` as local state after an Applier install: prunes covered
  /// instances, raises the checkpoint floor, and resumes execution above.
  void adopt_snapshot(const consensus::Snapshot& snap);

  void start_prepare();
  void finish_prepare();
  void flush_batch();
  /// Leadership lost to a higher ballot: drop the unproposed client batch
  /// and invalidate every armed flush, so a stale closure cannot propose
  /// under a ballot we no longer own.
  void abandon_leadership();
  void propose_range(LogIndex start, const std::vector<kv::Command>& cmds);
  /// Streams AcceptBatches to `peer` from its send cursor until the peer is
  /// caught up to log_tail_ or its in-flight window closes.
  void pump_peer(NodeId peer);
  void heartbeat_tick();
  void mark_chosen(LogIndex i);
  void advance_floor();
  void commit_to(LogIndex floor);
  /// Adopts a (possibly newer) contiguous-chosen watermark from a sender at
  /// `sender_bal`: local values accepted at that same ballot are provably the
  /// chosen ones; anything else below the floor is fetched via LearnRequest.
  void sync_to_floor(const Ballot& sender_bal, LogIndex floor);
  void request_missing(LogIndex upto);
  Instance& inst(LogIndex i);
  [[nodiscard]] const Instance* inst_if(LogIndex i) const;

  consensus::Group group_;
  consensus::Env& env_;
  Options opt_;

  Ballot ballot_;               // highest ballot seen (promise)
  bool phase1_succeeded_ = false;
  NodeId leader_ = kNoNode;
  consensus::SparseLog<Instance> instances_;  // sparse: holes are real
  LogIndex next_propose_ = 1;   // leader's next unused instance id
  LogIndex log_tail_ = 0;       // largest instance id with an accepted value

  // Durability plumbing: promise + accepted values stage through the
  // persister; replies and the proposer's self-accept wait on fsync.
  storage::Persister persister_;
  bool recovering_ = false;

  // Latest checkpoint: covers exactly the pruned instances (snap_.last_index
  // == instances_.floor() after the first compaction).
  consensus::Snapshot snap_;

  // Shared runtime machinery.
  consensus::ElectionTimer election_;
  consensus::PeriodicTimer heartbeat_;
  consensus::Batcher batcher_;
  consensus::Applier applier_;

  // Phase 1 (candidate) state.
  bool preparing_ = false;
  consensus::QuorumTracker prepare_acks_;
  std::map<LogIndex, AcceptedVal> safe_vals_;  // highest-ballot per index

  // Pending client batch (leader).
  std::vector<kv::Command> pending_;

  // Per-peer replication: a send cursor (next instance to ship to that
  // acceptor) plus the shared in-flight window. The cursor replaces the old
  // single broadcast point — peers advance independently, and loss recovery
  // is a per-peer cursor rollback (windowed retransmit) instead of the old
  // resend-every-unchosen-instance-per-heartbeat blanket rebroadcast.
  std::unordered_map<NodeId, LogIndex> peer_next_;
  consensus::PeerPipeline pipe_;

  // Round-robin cursor for sub-floor gap repair when we have no one above
  // us to ask (see request_missing).
  size_t learn_rr_ = 0;
};

}  // namespace praft::paxos
