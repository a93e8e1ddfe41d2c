#pragma once

#include <map>
#include <vector>

#include "consensus/applier.h"
#include "consensus/batcher.h"
#include "consensus/durable_log.h"
#include "consensus/env.h"
#include "consensus/group.h"
#include "consensus/log.h"
#include "consensus/node_iface.h"
#include "consensus/pipeline.h"
#include "consensus/timer.h"
#include "consensus/timing.h"
#include "consensus/types.h"
#include "net/packet.h"
#include "raft/messages.h"
#include "storage/persister.h"

namespace praft::raft {

/// Tunables. All of Raft's timing knobs are the shared consensus ones; the
/// struct exists so call sites keep a protocol-scoped name.
struct Options : consensus::TimingOptions {};

enum class Role { kFollower, kCandidate, kLeader };

/// Standard Raft (Ongaro & Ousterhout 2014) as the paper's baseline:
/// randomized elections, AppendEntries with conflict-suffix erasure, in-order
/// commit, and the §5.4.2 restriction (only current-term entries commit by
/// counting). This is the protocol Raft* deviates from (see src/raftstar).
///
/// Log storage, the election timer, leader heartbeats, submission batching
/// and the apply watermark all come from the shared consensus runtime; this
/// file holds only Raft's genuine protocol delta.
class RaftNode : public consensus::NodeIface {
 public:
  /// `store` (nullable) is this node's stable storage: currentTerm/votedFor
  /// and the log persist through it, and every message that depends on them
  /// waits for its fsync barrier (storage::Persister).
  RaftNode(consensus::Group group, consensus::Env& env, Options opt = {},
           storage::DurableStore* store = nullptr);

  /// Arms the election timer. Call once after construction.
  void start() override;

  /// Feeds a network packet whose payload holds a raft::Message.
  void on_packet(const net::Packet& p) override;
  [[nodiscard]] std::optional<size_t> entries_in(
      const net::Packet& p) const override {
    const auto* m = net::payload_as<Message>(p);
    if (m == nullptr) return std::nullopt;
    return entry_count(*m);
  }

  /// Leader-only: appends `cmd` to the log and schedules replication.
  /// Returns the assigned index, or -1 when this node is not the leader.
  LogIndex submit(const kv::Command& cmd) override;

  /// Registers the in-order apply callback (exactly once per index).
  void set_apply(consensus::ApplyFn fn) override {
    applier_.set_apply(std::move(fn));
  }

  void set_watermark_probe(consensus::WatermarkProbe probe) override {
    applier_.set_probe(std::move(probe));
  }

  void set_state_hooks(consensus::StateCapture capture,
                       consensus::StateRestore restore) override {
    applier_.set_state_hooks(std::move(capture), std::move(restore));
  }

  /// Forces a checkpoint + log compaction at the applied watermark now.
  void compact() override { maybe_compact(/*force=*/true); }
  [[nodiscard]] LogIndex compaction_floor() const override {
    return log_.base_index();
  }
  [[nodiscard]] size_t compactable_entries() const override {
    return static_cast<size_t>(applier_.applied() - log_.base_index());
  }
  [[nodiscard]] size_t resident_log_entries() const override {
    return log_.resident_entries();
  }
  [[nodiscard]] int64_t snapshots_installed() const override {
    return snapshots_installed_;
  }
  [[nodiscard]] LogIndex applied_index() const override {
    return applier_.applied();
  }
  [[nodiscard]] int64_t pipeline_rollbacks() const override {
    return pipe_.rollbacks();
  }

  /// Raft's hard state: currentTerm + votedFor (§5 "Persistent state").
  [[nodiscard]] consensus::HardState hard_state() const override {
    return consensus::HardState{term_, voted_for_, -1, 0, -1};
  }
  void persist_hard_state() override { persister_.hard_state(); }
  void set_hard_state_probe(consensus::HardStateProbe probe) override {
    persister_.set_probe(std::move(probe));
  }
  storage::RecoveryStats recover(const storage::DurableImage& img) override;

  [[nodiscard]] Role role() const { return role_; }
  [[nodiscard]] bool is_leader() const override {
    return role_ == Role::kLeader;
  }
  [[nodiscard]] Term current_term() const { return term_; }
  [[nodiscard]] NodeId leader_hint() const override { return leader_; }
  [[nodiscard]] LogIndex commit_index() const override {
    return applier_.commit_index();
  }
  [[nodiscard]] LogIndex last_index() const { return log_.last_index(); }
  /// Bounds-checked access (PRAFT_CHECK on out-of-range indexes).
  [[nodiscard]] const Entry& entry_at(LogIndex i) const { return log_.at(i); }
  [[nodiscard]] NodeId id() const override { return group_.self; }

  /// Test hook: forces an immediate election attempt.
  void force_election() override { start_election(); }

 private:
  void on_request_vote(const RequestVote& m);
  void on_vote_reply(const VoteReply& m);
  void on_append_entries(const AppendEntries& m);
  void on_append_reply(const AppendReply& m);
  void on_install_snapshot(const InstallSnapshot& m);
  void on_install_reply(const InstallSnapshotReply& m);

  void start_election();
  void become_leader();
  void step_down(Term t);
  void replicate_to(NodeId peer);
  void probe_retransmits();
  void send_snapshot(NodeId peer);
  void broadcast_append();
  void advance_commit();
  void commit_to(LogIndex target);
  void maybe_compact(bool force);
  [[nodiscard]] Term term_at(LogIndex i) const;
  /// Arms a durability barrier for everything appended so far: when it
  /// clears, the leader re-counts commit quorums (a leader may count ITSELF
  /// only for durably-logged entries — see consensus::DurableLogMirror).
  void note_appended();

  consensus::Group group_;
  consensus::Env& env_;
  Options opt_;

  // Persistent state: staged into the durable store on every change and
  // replayed from it by recover() after a crash (src/storage). A diskless
  // node (no store) keeps it in memory only.
  Term term_ = 0;
  NodeId voted_for_ = kNoNode;
  consensus::ContiguousLog<Entry> log_;

  // Durability plumbing: the persister gates dependent messages on fsyncs;
  // the mirror stages every log mutation into the WAL and tracks the
  // fsync-covered prefix (shared with Raft* via the consensus runtime).
  storage::Persister persister_;
  consensus::DurableLogMirror<Entry> mirror_;
  bool recovering_ = false;  // gates compaction during recovery

  // Latest checkpoint: always covers exactly the log's compacted prefix
  // (snap_.last_index == log_.base_index() after the first compaction), so
  // any follower behind the base can be served a snapshot.
  consensus::Snapshot snap_;
  consensus::CompactionTrigger compaction_;
  int64_t snapshots_installed_ = 0;

  // Volatile state.
  Role role_ = Role::kFollower;
  NodeId leader_ = kNoNode;

  // Shared runtime machinery.
  consensus::ElectionTimer election_;
  consensus::PeriodicTimer heartbeat_;
  consensus::Batcher batcher_;
  consensus::Applier applier_;

  // Candidate state.
  consensus::QuorumTracker votes_;

  // Leader state. Ordered maps: advance_commit's quorum_index iterates
  // match_index_, and must visit peers in a seed-stable order (lint rule D1).
  std::map<NodeId, LogIndex> next_index_;
  std::map<NodeId, LogIndex> match_index_;
  // Per-peer in-flight window: replicate_to pumps batches until it closes;
  // ack/reject/loss events below reopen or roll it back.
  consensus::PeerPipeline pipe_;
};

}  // namespace praft::raft
