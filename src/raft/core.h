#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/check.h"
#include "common/logging.h"
#include "consensus/applier.h"
#include "consensus/batcher.h"
#include "consensus/durable_log.h"
#include "consensus/env.h"
#include "consensus/group.h"
#include "consensus/log.h"
#include "consensus/node_iface.h"
#include "consensus/pipeline.h"
#include "consensus/snapshot.h"
#include "consensus/timer.h"
#include "consensus/types.h"
#include "net/packet.h"
#include "storage/persister.h"

namespace praft::raft {

using consensus::LogIndex;
using consensus::Term;

enum class Role { kFollower, kCandidate, kLeader };

/// The engine Raft and Raft* share. The paper (§3) derives Raft* from Raft
/// by three changes; everything else — randomized elections with the §5.4.1
/// up-to-date vote check, pipelined AppendEntries with snapshot catch-up,
/// commit and apply, compaction, crash recovery — is written once here, and
/// each protocol node overrides the protected hooks below with its delta.
///
/// `F` is the protocol's family: its Options, Entry and message types, and
/// kName for log lines (raft::Family, raftstar::Family). Core never asks
/// which protocol it runs; a hook's default is what Raft does.
///
/// Log storage, the election timer, leader heartbeats, submission batching
/// and the apply watermark all come from the shared consensus runtime.
template <typename F>
class Core : public consensus::NodeIface {
 public:
  using Options = typename F::Options;
  using Entry = typename F::Entry;
  using Message = typename F::Message;
  using RequestVote = typename F::RequestVote;
  using VoteReply = typename F::VoteReply;
  using AppendEntries = typename F::AppendEntries;
  using AppendReply = typename F::AppendReply;
  using InstallSnapshot = typename F::InstallSnapshot;
  using InstallSnapshotReply = typename F::InstallSnapshotReply;

  /// The Env's store (null: diskless) is this node's stable storage:
  /// currentTerm/votedFor and the log persist through it, and every message
  /// that depends on them waits for its fsync barrier (storage::Persister).
  Core(consensus::Group group, consensus::Env& env, Options opt = {})
      : NodeIface(env.stats()),
        group_(std::move(group)),
        env_(env),
        opt_(opt),
        persister_(env, group_.self, opt_.fsync_duration,
                   opt_.sync_batch_delay, [this] { return hard_state(); }),
        mirror_(persister_, log_),
        election_(env, opt_.election_timeout_min, opt_.election_timeout_max),
        heartbeat_(env),
        batcher_(env, opt_,
                 [this] {
                   if (role_ == Role::kLeader) broadcast_append();
                 }),
        pipe_(opt_, env.stats()) {
    group_.validate();
    applier_.set_trace(env_, group_.self);
    election_.set_gate([this] { return role_ != Role::kLeader; });
    election_.set_handler([this](bool expired) {
      if (expired) start_election();
    });
    heartbeat_.set_gate([this] { return role_ == Role::kLeader; });
    heartbeat_.set_handler([this] {
      probe_retransmits();
      broadcast_append();
    });
  }
  // The timers, the batcher, the persister and the log mirror hold `this`.
  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  /// Arms the election timer. Call once after construction.
  void start() override { election_.start(); }

  /// Feeds a network packet whose payload holds this family's Message.
  void on_packet(const net::Packet& p) override {
    const auto* msg = net::payload_as<Message>(p);
    PRAFT_CHECK_MSG(msg != nullptr,
                    std::string(F::kName) + " node got foreign payload");
    std::visit(
        [this](const auto& m) {
          using M = std::decay_t<decltype(m)>;
          if constexpr (std::is_same_v<M, RequestVote>) {
            on_request_vote(m);
          } else if constexpr (std::is_same_v<M, VoteReply>) {
            on_vote_reply(m);
          } else if constexpr (std::is_same_v<M, AppendEntries>) {
            on_append_entries(m);
          } else if constexpr (std::is_same_v<M, AppendReply>) {
            on_append_reply(m);
          } else if constexpr (std::is_same_v<M, InstallSnapshot>) {
            on_install_snapshot(m);
          } else {
            on_install_reply(m);
          }
        },
        *msg);
  }
  [[nodiscard]] std::optional<size_t> entries_in(
      const net::Packet& p) const override {
    const auto* m = net::payload_as<Message>(p);
    if (m == nullptr) return std::nullopt;
    return entry_count(*m);
  }

  /// Leader-only: appends `cmd` to the log and schedules replication.
  /// Returns the assigned index, or -1 when this node is not the leader.
  LogIndex submit(const kv::Command& cmd) override {
    if (role_ != Role::kLeader) return -1;
    // Backpressure: a full replication pipe (batch_backpressure_bytes of
    // pending + un-acked flushed data) refuses new submissions — the same
    // temporary -1 a non-leader gives, which the harness retries later.
    if (!batcher_.can_accept()) return -1;
    store_entry(Entry{term_, cmd});
    note_appended();
    batcher_.add_pending(consensus::wire::entry_bytes(cmd));
    return last_index();
  }

  /// Registers the in-order apply callback (exactly once per index).
  void set_apply(consensus::ApplyFn fn) override {
    applier_.set_apply(std::move(fn));
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
  [[nodiscard]] LogIndex applied_index() const override {
    return applier_.applied();
  }

  /// Raft's hard state: currentTerm + votedFor (§5 "Persistent state").
  [[nodiscard]] consensus::HardState hard_state() const override {
    return consensus::HardState{term_, voted_for_, -1, 0, -1};
  }
  storage::RecoveryStats recover(const storage::DurableImage& img) override {
    PRAFT_CHECK_MSG(role_ == Role::kFollower && last_index() == 0 &&
                        term_ == 0,
                    "recover() must run once, on a fresh node, before start()");
    recovering_ = true;
    term_ = img.hard.term;
    voted_for_ = img.hard.vote;
    if (img.snap.valid()) {
      // State transfer from our own disk: the snapshot stands in for the
      // WAL prefix it covers, exactly like a peer-shipped InstallSnapshot.
      applier_.install_snapshot(img.snap);
      snap_ = img.snap;
    }
    const storage::RecoveryStats stats = mirror_.replay(img);
    recovering_ = false;
    PRAFT_LOG(kInfo) << F::kName << " " << group_.self << " recovered: term "
                     << term_ << ", log to " << last_index() << " ("
                     << stats.replayed << " replayed above floor "
                     << stats.snapshot_floor << ")";
    return stats;
  }

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
  [[nodiscard]] const consensus::Group& group() const { return group_; }

  /// Test hook: forces an immediate election attempt.
  void force_election() override { start_election(); }

 protected:
  // -- The protocol's delta -------------------------------------------------

  /// The reply to a vote request, `granted` or not.
  virtual VoteReply vote_reply(const RequestVote& m, bool granted) {
    (void)m;
    VoteReply reply;
    reply.term = term_;
    reply.voter = group_.self;
    reply.granted = granted;
    return reply;
  }
  /// A new candidacy has begun (term bumped, self-vote cast).
  virtual void on_candidacy() {}
  /// A granted vote from a voter not counted before.
  virtual void on_vote(const VoteReply& m) { (void)m; }
  /// The election is won: take office through open_reign() and start
  /// replicating through run_reign().
  virtual void become_leader() = 0;
  /// Stores an append that passed the consistency check at `prev` (the
  /// first `skip` entries are already covered by our snapshot). Returning
  /// false refuses it although prev matched; the reject then carries
  /// conflict_hint 0.
  virtual bool accept_append(const AppendEntries& m, LogIndex prev,
                             size_t skip) = 0;
  /// The reply to an append: `match` on success, the back-off `hint` on a
  /// reject.
  virtual AppendReply append_reply(bool ok, LogIndex match, LogIndex hint) {
    AppendReply reply;
    reply.term = term_;
    reply.follower = group_.self;
    reply.ok = ok;
    reply.match_index = match;
    reply.conflict_hint = hint;
    return reply;
  }
  /// The leader took a successful reply's ack, before it re-counts commit.
  virtual void on_append_ok(const AppendReply& m) { (void)m; }
  /// The leader got a reject; the peer's window is already unwound.
  virtual void on_append_reject(const AppendReply& m) = 0;
  /// The leader re-counts its commit quorum.
  virtual void advance_commit() = 0;
  /// Appends `e` to the local log; every entry a node stores goes here.
  virtual void store_entry(Entry e) { log_.append(std::move(e)); }

  // -- Shared steps the hooks build on ---------------------------------------

  [[nodiscard]] Term term_at(LogIndex i) const { return log_.at(i).term; }

  /// Sends `m` behind the fsync barrier; returns its wire size.
  template <typename M>
  size_t send(NodeId to, M m) {
    const size_t bytes = wire_size(m);
    persister_.send(to, Message{std::move(m)}, bytes);
    return bytes;
  }

  /// Arms a durability barrier for everything appended so far: when it
  /// clears, the leader re-counts commit quorums (a leader may count ITSELF
  /// only for durably-logged entries — see consensus::DurableLogMirror).
  void note_appended() {
    mirror_.note_appended([this] {
      if (role_ == Role::kLeader) advance_commit();
    });
  }

  /// The highest index a commit quorum holds, or nullopt while fewer
  /// replicas are known than the quorum. Self counts only its durable prefix
  /// (the note_appended barrier advances it): a leader whose disk lags may
  /// not treat its volatile log as a replica.
  [[nodiscard]] std::optional<LogIndex> quorum_match() const {
    return consensus::quorum_index(mirror_.durable_index(), match_index_,
                                   opt_.commit_quorum(group_.majority()));
  }

  /// Takes office with fresh replication state: every peer's nextIndex
  /// starts at `next`, its matchIndex at 0.
  void open_reign(LogIndex next) {
    role_ = Role::kLeader;
    leader_ = group_.self;
    next_index_.clear();
    match_index_.clear();
    pipe_.reset_all();
    for (NodeId peer : group_.members) {
      if (peer == group_.self) continue;
      next_index_[peer] = next;
      match_index_[peer] = 0;
    }
    PRAFT_LOG(kInfo) << F::kName << " " << group_.self << " leader at term "
                     << term_;
  }

  /// Starts replicating the new reign's log: the entries appended on taking
  /// office must reach disk to count, then the first broadcast and the
  /// heartbeat go out.
  void run_reign() {
    note_appended();
    broadcast_append();
    heartbeat_.start(opt_.heartbeat_interval);
  }

  /// Backs `peer`'s nextIndex off after a prev-mismatch reject.
  void back_off(NodeId peer, LogIndex hint) {
    next_index_[peer] =
        std::max<LogIndex>(1, std::min(next_index_[peer] - 1, hint));
  }

  /// Pump: sends batches until `peer` is caught up or its in-flight window
  /// closes (consensus::PeerPipeline). nextIndex advances optimistically
  /// per batch, so successive iterations carry disjoint suffixes — multiple
  /// AppendEntries in flight per peer; a reject (or the retransmit probe
  /// after a loss) rolls the window back. `uncapped` sends the whole suffix
  /// in one append: a reject-resend that follows an on_reject which just
  /// emptied the window, so it is always admitted.
  void replicate_to(NodeId peer, bool uncapped = false) {
    bool sent_any = false;
    for (;;) {
      const LogIndex next = next_index_[peer];
      PRAFT_CHECK(next >= 1);
      if (next <= log_.base_index()) {
        // The entries this follower needs were compacted away: catch it up
        // with the checkpoint instead of log replay (the ported Checkpoint
        // action's state-transfer half).
        if (!pipe_.can_send(peer)) return;
        send_snapshot(peer);
        sent_any = true;
        continue;  // appends pipeline right behind the snapshot
      }
      const bool has_new = last_index() >= next;
      if (!has_new && sent_any) return;  // caught up; no trailing keep-alive
      if (has_new && !pipe_.can_send(peer)) return;  // window full
      const LogIndex prev = next - 1;
      AppendEntries ae;
      ae.term = term_;
      ae.leader = group_.self;
      ae.prev_index = prev;
      ae.prev_term = term_at(std::min(prev, last_index()));
      ae.commit = commit_index();
      const LogIndex hi =
          uncapped ? last_index()
                   : std::min(last_index(),
                              prev + static_cast<LogIndex>(
                                         opt_.max_entries_per_batch));
      for (LogIndex i = prev + 1; i <= hi; ++i) {
        ae.entries.push_back(log_.at(i));
      }
      const size_t bytes = send(peer, std::move(ae));
      // Empty keep-alives stay untracked and ungated: heartbeats must always
      // flow, and their cumulative ok-replies (match == prev) retire every
      // outstanding batch they cover.
      if (!has_new) return;
      pipe_.on_send(peer, next, hi, bytes, env_.now());
      next_index_[peer] = hi + 1;
      sent_any = true;
    }
  }

  void commit_to(LogIndex target) {
    // Committed entries are no longer in flight for the batching controller
    // (leader only — a follower never flushed them).
    if (role_ == Role::kLeader) {
      size_t acked = 0;
      for (LogIndex i = commit_index() + 1; i <= target; ++i) {
        acked += consensus::wire::entry_bytes(log_.at(i).cmd);
      }
      if (acked > 0) batcher_.note_acked(acked);
    }
    applier_.commit_to(target,
                       [this](LogIndex i) { return &log_.at(i).cmd; });
    maybe_compact(/*force=*/false);
  }

  /// Installs `snap` unless the applied watermark already covers it. With
  /// `keep_suffix` the log keeps its entries above the snapshot and just
  /// moves its base; otherwise it restarts at the snapshot's boundary.
  void install_snapshot(const consensus::Snapshot& snap, bool keep_suffix) {
    if (!applier_.install_snapshot(snap)) return;
    ++env_.stats().snapshots_installed;
    // Persist the snapshot FIRST so the WAL truncation a reset stages is
    // committed against it (staging order = durable apply order).
    persister_.snapshot(snap);
    if (keep_suffix) {
      log_.compact_to(snap.last_index);
    } else {
      log_.reset_to(snap.last_index, Entry{snap.last_term, {}});
    }
    snap_ = snap;
    PRAFT_LOG(kInfo) << F::kName << " " << group_.self
                     << " installed snapshot @" << snap.last_index;
  }

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
  // fsync-covered prefix.
  storage::Persister persister_;
  consensus::DurableLogMirror<Entry> mirror_;
  bool recovering_ = false;  // gates compaction during recovery

  // Latest checkpoint: always covers exactly the log's compacted prefix
  // (snap_.last_index == log_.base_index() after the first compaction), so
  // any follower behind the base can be served a snapshot.
  consensus::Snapshot snap_;

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

  // Leader state. Ordered maps: quorum_match iterates match_index_, and
  // must visit peers in a seed-stable order (lint rule D1).
  std::map<NodeId, LogIndex> next_index_;
  std::map<NodeId, LogIndex> match_index_;
  // Per-peer in-flight window: replicate_to pumps batches until it closes;
  // ack/reject/loss events reopen or roll it back.
  consensus::PeerPipeline pipe_;

 private:
  void on_request_vote(const RequestVote& m) {
    if (m.term > term_) step_down(m.term);
    bool granted = false;
    if (m.term == term_ &&
        (voted_for_ == kNoNode || voted_for_ == m.candidate)) {
      // §5.4.1 election restriction: candidate's log at least as
      // up-to-date.
      const Term my_last_term = term_at(last_index());
      const bool up_to_date =
          m.last_term > my_last_term ||
          (m.last_term == my_last_term && m.last_index >= last_index());
      if (up_to_date) {
        granted = true;
        voted_for_ = m.candidate;
        persister_.hard_state();
        election_.touch();  // granting a vote defers our own election
      }
    }
    VoteReply reply = vote_reply(m, granted);
    if (granted && opt_.unsafe_skip_vote_fsync) {
      // TEST-ONLY injected bug: the reply leaves before the vote hits disk.
      persister_.send_unsynced(m.candidate, Message{reply}, wire_size(reply));
    } else {
      send(m.candidate, std::move(reply));
    }
  }

  /// Reply prologue: a newer term deposes us; otherwise a reply counts only
  /// if it answers this term and we still hold `role`.
  bool current(Term t, Role role) {
    if (t > term_) {
      step_down(t);
      return false;
    }
    return role_ == role && t == term_;
  }

  void on_vote_reply(const VoteReply& m) {
    if (!current(m.term, Role::kCandidate) || !m.granted) return;
    if (votes_.add(group_.rank_of(m.voter))) on_vote(m);
    if (votes_.reached(group_.majority())) become_leader();
  }

  void on_append_entries(const AppendEntries& m) {
    if (m.term < term_) {
      send(m.leader, append_reply(false, 0, 0));
      return;
    }
    step_down(m.term);
    leader_ = m.leader;
    election_.touch();

    const LogIndex coverage =
        m.prev_index + static_cast<LogIndex>(m.entries.size());
    // A prev below our snapshot base points into the compacted prefix. That
    // prefix is committed and applied here, and the leader's copy is
    // identical (Leader Completeness), so clamp: skip the covered entries
    // and resume the append at the base sentinel, whose term check the
    // snapshot already settled.
    LogIndex prev = m.prev_index;
    size_t skip = 0;
    if (prev < log_.base_index()) {
      const LogIndex covered = std::min(
          static_cast<LogIndex>(m.entries.size()), log_.base_index() - prev);
      skip = static_cast<size_t>(covered);
      prev += covered;
      if (prev < log_.base_index()) {
        // The whole append predates our snapshot: ack it as matched.
        send(m.leader, append_reply(true, coverage, 0));
        return;
      }
    }

    if (skip == 0 &&
        (m.prev_index > last_index() || term_at(m.prev_index) != m.prev_term)) {
      // Consistency check failed; hint the leader where to back off.
      const LogIndex hint = std::min(last_index() + 1, m.prev_index);
      send(m.leader, append_reply(false, 0, std::max<LogIndex>(1, hint)));
      return;
    }
    if (!accept_append(m, prev, skip)) {
      send(m.leader, append_reply(false, 0, 0));
      return;
    }
    note_appended();
    commit_to(std::min(m.commit, coverage));
    // The ok-reply is what lets the leader count this replica toward a
    // commit quorum, so it must not leave before the appended entries (and
    // any term bump above) are durable — send gates it on the fsync barrier.
    send(m.leader, append_reply(true, coverage, 0));
  }

  void on_append_reply(const AppendReply& m) {
    if (!current(m.term, Role::kLeader)) return;
    if (!m.ok) {
      // The peer's log diverged below our window: everything pipelined
      // after the rejected batch is garbage too, so unwind it all before
      // the protocol picks the resend.
      pipe_.on_reject(m.follower);
      on_append_reject(m);
      return;
    }
    // Cumulative ack: retires every in-flight batch the match index covers,
    // reopening the peer's window for the refill below (and feeding the
    // peer's RTT estimate for adaptive retransmit timeouts).
    take_ack(m.follower, m.match_index);
    on_append_ok(m);
    advance_commit();
    if (next_index_[m.follower] <= last_index()) replicate_to(m.follower);
  }

  void on_install_snapshot(const InstallSnapshot& m) {
    if (m.term >= term_) {
      step_down(m.term);
      leader_ = m.leader;
      election_.touch();
      // Keep the suffix when our log already holds the snapshot's last
      // entry (Raft §7's retain-following-entries case). A short or
      // conflicting log holds nothing beyond the snapshot that is
      // committed, so it restarts at the snapshot's boundary.
      const LogIndex last = m.snap.last_index;
      install_snapshot(m.snap, last <= last_index() &&
                                   last > log_.base_index() &&
                                   term_at(last) == m.snap.last_term);
    }
    send(m.leader,
         InstallSnapshotReply{term_, group_.self, applier_.applied()});
  }

  void on_install_reply(const InstallSnapshotReply& m) {
    if (!current(m.term, Role::kLeader)) return;
    take_ack(m.follower, m.last_index);
    advance_commit();
    if (next_index_[m.follower] <= last_index()) replicate_to(m.follower);
  }

  void take_ack(NodeId peer, LogIndex match) {
    pipe_.on_ack(peer, match, env_.now());
    match_index_[peer] = std::max(match_index_[peer], match);
    next_index_[peer] = std::max(next_index_[peer], match + 1);
  }

  void start_election() {
    ++term_;
    role_ = Role::kCandidate;
    leader_ = kNoNode;
    voted_for_ = group_.self;
    votes_.clear();
    votes_.add(group_.rank_of(group_.self));
    on_candidacy();
    persister_.hard_state();  // the self-vote must survive a crash
    election_.touch();        // restart the clock for this attempt
    PRAFT_LOG(kDebug) << F::kName << " " << group_.self
                      << " starts election term " << term_;
    const RequestVote rv{term_, group_.self, last_index(),
                         term_at(last_index())};
    for (NodeId peer : group_.members) {
      if (peer == group_.self) continue;
      send(peer, rv);
    }
    // A single-node group wins on its own vote.
    if (votes_.reached(group_.majority())) become_leader();
  }

  void step_down(Term t) {
    if (t > term_) {
      term_ = t;
      voted_for_ = kNoNode;
      persister_.hard_state();
    }
    if (role_ == Role::kLeader) {
      next_index_.clear();
      match_index_.clear();
      heartbeat_.stop();
      // A flush armed while we led must not fire now that we are deposed,
      // and in-flight windows from this reign must not gate (or be retired
      // by stale acks during) a future one.
      batcher_.cancel();
      pipe_.reset_all();
    }
    role_ = Role::kFollower;
  }

  void broadcast_append() {
    for (NodeId peer : group_.members) {
      if (peer == group_.self) continue;
      replicate_to(peer);
    }
    advance_commit();  // single-node groups commit immediately
  }

  void probe_retransmits() {
    // Loss detection: a peer whose oldest in-flight batch outlived the
    // retransmit timeout gets its window unwound and its nextIndex rolled
    // back to the lowest un-acked position; the heartbeat's
    // broadcast_append then re-sends from there (windowed retransmit
    // probe).
    for (NodeId peer : group_.members) {
      if (peer == group_.self || !pipe_.retransmit_due(peer, env_.now())) {
        continue;
      }
      const LogIndex lo = pipe_.on_loss(peer);
      if (lo >= 1) {
        next_index_[peer] =
            std::max<LogIndex>(1, std::min(next_index_[peer], lo));
      }
    }
  }

  void maybe_compact(bool force) {
    if (recovering_ || !applier_.can_snapshot()) return;
    const LogIndex target = applier_.applied();
    const auto compactable = static_cast<size_t>(target - log_.base_index());
    if (!opt_.compaction_due(compactable, force)) return;
    snap_.last_index = target;
    snap_.last_term = term_at(target);
    snap_.state = applier_.capture_state();
    log_.compact_to(target);
    // Durably: the snapshot substitutes for the WAL prefix it covers.
    persister_.snapshot(snap_);
    PRAFT_LOG(kDebug) << F::kName << " " << group_.self
                      << " compacted log to " << target;
  }

  void send_snapshot(NodeId peer) {
    PRAFT_CHECK_MSG(snap_.valid() && snap_.last_index == log_.base_index(),
                    "snapshot does not cover the compacted prefix");
    const size_t bytes =
        send(peer, InstallSnapshot{term_, group_.self, snap_});
    // The snapshot occupies the peer's window like any batch (its reply
    // acks snap_.last_index); a loss rolls nextIndex back below the base,
    // which re-enters the snapshot path.
    pipe_.on_send(peer, next_index_[peer], snap_.last_index, bytes,
                  env_.now());
    // Optimistic pipelining, like replicate_to: resume appends right after
    // the snapshot; the reply (or a reject) corrects the window.
    next_index_[peer] = snap_.last_index + 1;
  }
};

}  // namespace praft::raft
