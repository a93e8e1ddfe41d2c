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
#include "raftstar/messages.h"
#include "storage/persister.h"

namespace praft::raftstar {

/// Raft* shares every timing knob with the rest of the repo (see
/// consensus::TimingOptions); the struct exists for protocol-scoped naming.
struct Options : consensus::TimingOptions {};

enum class Role { kFollower, kCandidate, kLeader };

/// Raft* — the paper's Raft variant that refines MultiPaxos (§3, Fig. 2):
///  1. Vote replies return the voter's extra log entries; the new leader
///     extends its log with safe values (highest log ballot per index)
///     instead of followers erasing their longer logs.
///  2. A follower REJECTS an append whose coverage (prev + |entries|) is
///     shorter than its own log — Raft* never erases accepted entries, it
///     only overwrites them with a full replacement suffix.
///  3. Every accepted append overwrites the ballot of all covered entries
///     with the append's term (tracked as the uniform `log_bal_` watermark),
///     which is why Raft* needs no §5.4.2 commit restriction.
///
/// Timers, batching, log storage and the apply watermark come from the
/// shared consensus runtime; only the deltas above live here.
class RaftStarNode : public consensus::NodeIface {
 public:
  /// `store` (nullable) is this node's stable storage: term/votedFor, the
  /// log and its uniform ballot persist through it; dependent messages wait
  /// on the fsync barrier (storage::Persister).
  RaftStarNode(consensus::Group group, consensus::Env& env, Options opt = {},
               storage::DurableStore* store = nullptr);

  void start() override;
  void on_packet(const net::Packet& p) override;
  [[nodiscard]] std::optional<size_t> entries_in(
      const net::Packet& p) const override {
    const auto* m = net::payload_as<Message>(p);
    if (m == nullptr) return std::nullopt;
    return entry_count(*m);
  }

  /// Leader-only append; returns assigned index or -1.
  LogIndex submit(const kv::Command& cmd) override;

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

  /// Raft*'s hard state: currentTerm + votedFor, plus the uniform log
  /// ballot (aux) — a recovered log must remember the ballot its entries
  /// were last re-accepted at or safe-value selection breaks.
  [[nodiscard]] consensus::HardState hard_state() const override {
    return consensus::HardState{term_, voted_for_, -1, log_bal_, -1};
  }
  void persist_hard_state() override { persister_.hard_state(); }
  void set_hard_state_probe(consensus::HardStateProbe probe) override {
    persister_.set_probe(std::move(probe));
  }
  storage::RecoveryStats recover(const storage::DurableImage& img) override;

  /// Hook invoked when the leader learns a new commit index (used by the
  /// ported optimizations: Raft*-PQL gates commit on lease holders here).
  using CommitGate = std::function<bool(LogIndex)>;
  void set_commit_gate(CommitGate gate) { commit_gate_ = std::move(gate); }

  /// Re-evaluates the commit gate (PQL calls this when holder acks arrive).
  void retry_commit() { advance_commit(); }

  [[nodiscard]] Role role() const { return role_; }
  [[nodiscard]] bool is_leader() const override {
    return role_ == Role::kLeader;
  }
  [[nodiscard]] Term current_term() const { return term_; }
  [[nodiscard]] Term log_bal() const { return log_bal_; }
  [[nodiscard]] NodeId leader_hint() const override { return leader_; }
  [[nodiscard]] LogIndex commit_index() const override {
    return applier_.commit_index();
  }
  [[nodiscard]] LogIndex last_index() const { return log_.last_index(); }
  /// Bounds-checked access (PRAFT_CHECK on out-of-range indexes).
  [[nodiscard]] const Entry& entry_at(LogIndex i) const { return log_.at(i); }
  [[nodiscard]] NodeId id() const override { return group_.self; }
  [[nodiscard]] const consensus::Group& group() const { return group_; }

  /// Observer invoked for every successful AppendReply the leader receives
  /// (non-mutating hook per §4.2 — it may read but never mutates Raft* state;
  /// Raft*-PQL uses it to collect lease-holder acknowledgements).
  using AppendReplyObserver = std::function<void(
      NodeId follower, LogIndex match, const std::vector<NodeId>& piggyback)>;
  void set_append_reply_observer(AppendReplyObserver obs) {
    append_reply_observer_ = std::move(obs);
  }

  /// Piggyback hook: ids attached to our AppendReply messages (Raft*-PQL
  /// attaches the holders of leases granted by this replica; Fig. 13).
  using ReplyDecorator = std::function<std::vector<NodeId>()>;
  void set_reply_decorator(ReplyDecorator dec) {
    reply_decorator_ = std::move(dec);
  }

  /// Observer invoked whenever an entry is stored into the LOCAL log
  /// (leader submit, safe-value adoption, follower suffix replacement).
  /// Raft*-PQL tracks per-key last-write indexes with it; like all
  /// optimization hooks it must not mutate Raft* state (§4.2).
  using EntryObserver = std::function<void(LogIndex, const Entry&)>;
  void set_entry_observer(EntryObserver obs) {
    entry_observer_ = std::move(obs);
  }

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
  void replicate_to(NodeId peer, bool uncapped = false);
  void probe_retransmits();
  void send_snapshot(NodeId peer);
  void broadcast_append();
  void advance_commit();
  void commit_to(LogIndex target);
  void maybe_compact(bool force);
  [[nodiscard]] Term term_at(LogIndex i) const;
  /// Arms a durability barrier for everything appended so far (the leader
  /// counts itself toward commit quorums only up to the mirror's durable
  /// index — see consensus::DurableLogMirror).
  void note_appended();

  consensus::Group group_;
  consensus::Env& env_;
  Options opt_;

  Term term_ = 0;
  NodeId voted_for_ = kNoNode;
  consensus::ContiguousLog<Entry> log_;
  Term log_bal_ = 0;  // uniform per-entry ballot (see Entry doc)

  // Durability plumbing (see RaftNode): fsync barriers + the shared
  // WAL-mirroring/durable-cover machinery.
  storage::Persister persister_;
  consensus::DurableLogMirror<Entry> mirror_;
  bool recovering_ = false;  // gates compaction during recovery

  // Latest checkpoint (covers exactly the compacted prefix; see RaftNode).
  consensus::Snapshot snap_;
  consensus::CompactionTrigger compaction_;
  int64_t snapshots_installed_ = 0;

  Role role_ = Role::kFollower;
  NodeId leader_ = kNoNode;

  // Shared runtime machinery.
  consensus::ElectionTimer election_;
  consensus::PeriodicTimer heartbeat_;
  consensus::Batcher batcher_;
  consensus::Applier applier_;

  // Candidate state: vote tally plus collected extra entries per voter.
  consensus::QuorumTracker votes_;
  struct ExtraLog {
    Term log_bal;
    LogIndex from;
    std::vector<Entry> entries;
  };
  std::vector<ExtraLog> extras_;
  LogIndex election_last_index_ = 0;  // our last_index when we solicited votes
  // Newest checkpoint shipped by a voter (see VoteReply::has_snap):
  // installed in BecomeLeader before safe-value selection.
  consensus::Snapshot election_snap_;

  // Ordered maps: advance_commit's quorum_index iterates match_index_, and
  // the visit order must be seed-stable (lint rule D1).
  std::map<NodeId, LogIndex> next_index_;
  std::map<NodeId, LogIndex> match_index_;
  // Per-peer in-flight window (consensus::PeerPipeline; see RaftNode).
  consensus::PeerPipeline pipe_;

  CommitGate commit_gate_;
  AppendReplyObserver append_reply_observer_;
  ReplyDecorator reply_decorator_;
  EntryObserver entry_observer_;

  void store_entry(Entry e);  // append + observer
};

}  // namespace praft::raftstar
