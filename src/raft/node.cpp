#include "raft/node.h"

#include <algorithm>

#include "common/check.h"
#include "common/logging.h"

namespace praft::raft {

RaftNode::RaftNode(consensus::Group group, consensus::Env& env, Options opt,
                   storage::DurableStore* store)
    : group_(std::move(group)),
      env_(env),
      opt_(opt),
      persister_(env, store, opt_.fsync_duration, opt_.sync_batch_delay,
                 [this] { return hard_state(); }),
      mirror_(persister_, log_),
      election_(env, opt_.election_timeout_min, opt_.election_timeout_max),
      heartbeat_(env),
      batcher_(env, opt_,
               [this] {
                 if (role_ == Role::kLeader) broadcast_append();
               }),
      votes_(group_.majority()),
      pipe_(opt_) {
  group_.validate();
  election_.set_gate([this] { return role_ != Role::kLeader; });
  election_.set_handler([this](bool expired) {
    if (expired) start_election();
  });
  heartbeat_.set_gate([this] { return role_ == Role::kLeader; });
  heartbeat_.set_handler([this] {
    probe_retransmits();
    broadcast_append();
    // Interval-leg compaction must also fire on an idle leader (followers
    // re-evaluate on the commit_to every heartbeat append triggers).
    maybe_compact(/*force=*/false);
  });
}

void RaftNode::start() { election_.start(); }

Term RaftNode::term_at(LogIndex i) const { return log_.at(i).term; }

void RaftNode::note_appended() {
  mirror_.note_appended([this] {
    if (role_ == Role::kLeader) advance_commit();
  });
}

void RaftNode::start_election() {
  ++term_;
  role_ = Role::kCandidate;
  leader_ = kNoNode;
  voted_for_ = group_.self;
  votes_ = consensus::QuorumTracker(group_.majority());
  votes_.add(group_.self);
  persister_.hard_state();  // the self-vote must survive a crash
  election_.touch();  // restart the clock for this attempt
  PRAFT_LOG(kDebug) << "raft " << group_.self << " starts election term "
                    << term_;
  RequestVote rv{term_, group_.self, last_index(), term_at(last_index())};
  for (NodeId peer : group_.members) {
    if (peer == group_.self) continue;
    persister_.send(peer, Message{rv}, wire_size(rv));
  }
  if (votes_.reached()) become_leader();  // single-node group
}

void RaftNode::step_down(Term t) {
  if (t > term_) {
    term_ = t;
    voted_for_ = kNoNode;
    persister_.hard_state();
  }
  if (role_ == Role::kLeader) {
    next_index_.clear();
    match_index_.clear();
    heartbeat_.stop();
    // A flush armed while we led must not fire now that we are deposed, and
    // in-flight windows from this reign must not gate (or be retired by
    // stale acks during) a future one.
    batcher_.cancel();
    pipe_.reset_all();
  }
  role_ = Role::kFollower;
}

void RaftNode::on_packet(const net::Packet& p) {
  const auto* msg = net::payload_as<Message>(p);
  PRAFT_CHECK_MSG(msg != nullptr, "raft node got foreign payload");
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

void RaftNode::on_request_vote(const RequestVote& m) {
  if (m.term > term_) step_down(m.term);
  bool granted = false;
  if (m.term == term_ &&
      (voted_for_ == kNoNode || voted_for_ == m.candidate)) {
    // §5.4.1 election restriction: candidate's log at least as up-to-date.
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
  VoteReply reply{term_, group_.self, granted};
  if (granted && opt_.unsafe_skip_vote_fsync) {
    // TEST-ONLY injected bug: the reply leaves before the vote hits disk.
    persister_.send_unsynced(m.candidate, Message{reply}, wire_size(reply));
  } else {
    persister_.send(m.candidate, Message{reply}, wire_size(reply));
  }
}

void RaftNode::on_vote_reply(const VoteReply& m) {
  if (m.term > term_) {
    step_down(m.term);
    return;
  }
  if (role_ != Role::kCandidate || m.term != term_ || !m.granted) return;
  votes_.add(m.voter);
  if (votes_.reached()) become_leader();
}

void RaftNode::become_leader() {
  role_ = Role::kLeader;
  leader_ = group_.self;
  next_index_.clear();
  match_index_.clear();
  pipe_.reset_all();
  for (NodeId peer : group_.members) {
    if (peer == group_.self) continue;
    next_index_[peer] = last_index() + 1;
    match_index_[peer] = 0;
  }
  PRAFT_LOG(kInfo) << "raft " << group_.self << " leader at term " << term_;
  // Commit a no-op to pull prior-term entries to commit (§5.4.2 workaround —
  // Raft cannot count replicas of old-term entries directly).
  log_.append(Entry{term_, kv::noop_command()});
  note_appended();
  broadcast_append();
  heartbeat_.start(opt_.heartbeat_interval);
}

LogIndex RaftNode::submit(const kv::Command& cmd) {
  if (role_ != Role::kLeader) return -1;
  // Backpressure: a full replication pipe (batch_backpressure_bytes of
  // pending + un-acked flushed data) refuses new submissions — the same
  // temporary -1 a non-leader gives, which the harness retries later.
  if (!batcher_.can_accept()) return -1;
  log_.append(Entry{term_, cmd});
  note_appended();
  batcher_.add_pending(wire::entry_bytes(cmd));
  return last_index();
}

void RaftNode::broadcast_append() {
  for (NodeId peer : group_.members) {
    if (peer == group_.self) continue;
    replicate_to(peer);
  }
  advance_commit();  // single-node groups commit immediately
}

void RaftNode::replicate_to(NodeId peer) {
  // Pump: send batches until the peer is caught up or its in-flight window
  // closes (consensus::PeerPipeline). nextIndex advances optimistically per
  // batch, so successive iterations carry disjoint suffixes — multiple
  // AppendEntries in flight per peer; a reject (or the retransmit probe
  // after a loss) rolls the window back.
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
        std::min(last_index(),
                 prev + static_cast<LogIndex>(opt_.max_entries_per_batch));
    for (LogIndex i = prev + 1; i <= hi; ++i) {
      ae.entries.push_back(log_.at(i));
    }
    const size_t bytes = wire_size(ae);
    persister_.send(peer, Message{ae}, bytes);
    // Empty keep-alives stay untracked and ungated: heartbeats must always
    // flow, and their cumulative ok-replies (match == prev) retire every
    // outstanding batch they cover.
    if (!has_new) return;
    pipe_.on_send(peer, next, hi, bytes, env_.now());
    next_index_[peer] = hi + 1;
    sent_any = true;
  }
}

void RaftNode::probe_retransmits() {
  // Loss detection: a peer whose oldest in-flight batch outlived the
  // retransmit timeout gets its window unwound and its nextIndex rolled
  // back to the lowest un-acked position; the heartbeat's broadcast_append
  // then re-sends from there (windowed retransmit probe).
  for (NodeId peer : group_.members) {
    if (peer == group_.self || !pipe_.retransmit_due(peer, env_.now())) {
      continue;
    }
    const LogIndex lo = pipe_.on_loss(peer);
    if (lo >= 1) {
      next_index_[peer] = std::max<LogIndex>(
          1, std::min(next_index_[peer], lo));
    }
  }
}

void RaftNode::on_append_entries(const AppendEntries& m) {
  if (m.term < term_) {
    AppendReply reply{term_, group_.self, false, 0, 0};
    persister_.send(m.leader, Message{reply}, wire_size(reply));
    return;
  }
  step_down(m.term);
  leader_ = m.leader;
  election_.touch();

  // A prev below our snapshot base points into the compacted prefix. That
  // prefix is committed and applied here, and the leader's copy is identical
  // (Leader Completeness), so clamp: skip the covered entries and resume the
  // append at the base sentinel, whose term check the snapshot already
  // settled.
  LogIndex prev = m.prev_index;
  size_t skip = 0;
  if (prev < log_.base_index()) {
    const LogIndex covered = std::min(
        static_cast<LogIndex>(m.entries.size()), log_.base_index() - prev);
    skip = static_cast<size_t>(covered);
    prev += covered;
    if (prev < log_.base_index()) {
      // The whole append predates our snapshot: ack it as matched.
      AppendReply reply{term_, group_.self, true,
                        m.prev_index + static_cast<LogIndex>(m.entries.size()),
                        0};
      persister_.send(m.leader, Message{reply}, wire_size(reply));
      return;
    }
  }

  if (skip == 0 &&
      (m.prev_index > last_index() || term_at(m.prev_index) != m.prev_term)) {
    // Consistency check failed; hint the leader where to back off.
    const LogIndex hint = std::min(last_index() + 1, m.prev_index);
    AppendReply reply{term_, group_.self, false, 0, std::max<LogIndex>(1, hint)};
    persister_.send(m.leader, Message{reply}, wire_size(reply));
    return;
  }

  // Append, erasing any conflicting suffix (the behaviour that prevents a
  // direct refinement mapping to Paxos — see paper §3).
  LogIndex idx = prev;
  for (size_t k = skip; k < m.entries.size(); ++k) {
    const Entry& e = m.entries[k];
    ++idx;
    if (idx <= last_index()) {
      if (log_.at(idx).term != e.term) {
        log_.truncate_after(idx - 1);  // erase extraneous entries
        log_.append(e);
      }
    } else {
      log_.append(e);
    }
  }
  note_appended();
  const LogIndex match = m.prev_index + static_cast<LogIndex>(m.entries.size());
  commit_to(std::min(m.commit, match));
  // The ok-reply is what lets the leader count this replica toward a commit
  // quorum, so it must not leave before the appended entries (and any term
  // bump above) are durable — persister_.send gates it on the fsync barrier.
  AppendReply reply{term_, group_.self, true, match, 0};
  persister_.send(m.leader, Message{reply}, wire_size(reply));
}

void RaftNode::on_append_reply(const AppendReply& m) {
  if (m.term > term_) {
    step_down(m.term);
    return;
  }
  if (role_ != Role::kLeader || m.term != term_) return;
  if (m.ok) {
    // Cumulative ack: retires every in-flight batch the match index covers,
    // reopening the peer's window for the refill below (and feeding the
    // peer's RTT estimate for adaptive retransmit timeouts).
    pipe_.on_ack(m.follower, m.match_index, env_.now());
    match_index_[m.follower] = std::max(match_index_[m.follower], m.match_index);
    next_index_[m.follower] =
        std::max(next_index_[m.follower], m.match_index + 1);
    advance_commit();
    if (next_index_[m.follower] <= last_index()) replicate_to(m.follower);
  } else {
    // The peer's log diverged below our window: everything pipelined after
    // the rejected batch is garbage too, so unwind it all before backing
    // nextIndex off.
    pipe_.on_reject(m.follower);
    next_index_[m.follower] =
        std::max<LogIndex>(1, std::min(next_index_[m.follower] - 1,
                                       m.conflict_hint));
    replicate_to(m.follower);
  }
}

void RaftNode::advance_commit() {
  // Highest index held by a quorum, committed only at a current-term entry
  // (§5.4.2: never commit old-term entries by counting). Log terms never
  // decrease, so if that index fails the check every lower one does too.
  // Self counts only its durable prefix (the mirror's note_appended
  // barrier advances it): a leader whose disk lags may not treat its
  // volatile log as a replica.
  const std::optional<LogIndex> quorum = consensus::quorum_index(
      mirror_.durable_index(), match_index_,
      opt_.commit_quorum(group_.majority()));
  if (!quorum) return;
  const LogIndex n = std::min(*quorum, last_index());
  if (n > commit_index() && term_at(n) == term_) commit_to(n);
}

void RaftNode::commit_to(LogIndex target) {
  // Committed entries are no longer in flight for the batching controller
  // (leader only — a follower never flushed them).
  if (role_ == Role::kLeader) {
    size_t acked = 0;
    for (LogIndex i = commit_index() + 1; i <= target; ++i) {
      acked += wire::entry_bytes(log_.at(i).cmd);
    }
    if (acked > 0) batcher_.note_acked(acked);
  }
  applier_.commit_to(target,
                     [this](LogIndex i) { return &log_.at(i).cmd; });
  maybe_compact(/*force=*/false);
}

void RaftNode::maybe_compact(bool force) {
  if (recovering_ || !applier_.can_snapshot()) return;
  const LogIndex target = applier_.applied();
  const auto compactable = static_cast<size_t>(target - log_.base_index());
  if (!compaction_.due(opt_, compactable, env_.now(), force)) return;
  snap_.last_index = target;
  snap_.last_term = term_at(target);
  snap_.state = applier_.capture_state();
  log_.compact_to(target);
  // Durably: the snapshot substitutes for the WAL prefix it covers.
  persister_.snapshot(snap_);
  compaction_.fired(env_.now());
  PRAFT_LOG(kDebug) << "raft " << group_.self << " compacted log to "
                    << target;
}

void RaftNode::send_snapshot(NodeId peer) {
  PRAFT_CHECK_MSG(snap_.valid() && snap_.last_index == log_.base_index(),
                  "snapshot does not cover the compacted prefix");
  InstallSnapshot is{term_, group_.self, snap_};
  const size_t bytes = wire_size(is);
  persister_.send(peer, Message{is}, bytes);
  // The snapshot occupies the peer's window like any batch (its reply acks
  // snap_.last_index); a loss rolls nextIndex back below the base, which
  // re-enters the snapshot path.
  pipe_.on_send(peer, next_index_[peer], snap_.last_index, bytes, env_.now());
  // Optimistic pipelining, like replicate_to: resume appends right after
  // the snapshot; the reply (or a reject) corrects the window.
  next_index_[peer] = snap_.last_index + 1;
}

void RaftNode::on_install_snapshot(const InstallSnapshot& m) {
  if (m.term >= term_) {
    step_down(m.term);
    leader_ = m.leader;
    election_.touch();
    if (applier_.install_snapshot(m.snap)) {
      ++snapshots_installed_;
      // Persist the snapshot FIRST so the WAL truncation a reset stages is
      // committed against it (staging order = durable apply order).
      persister_.snapshot(m.snap);
      if (m.snap.last_index <= last_index() &&
          m.snap.last_index > log_.base_index() &&
          term_at(m.snap.last_index) == m.snap.last_term) {
        // Our log already holds the matching entry: keep the suffix and
        // just move the base (Raft §7's retain-following-entries case).
        log_.compact_to(m.snap.last_index);
      } else {
        // Short or conflicting log: anything we held beyond the snapshot
        // conflicts with the committed prefix and is uncommitted — drop it.
        log_.reset_to(m.snap.last_index, Entry{m.snap.last_term, {}});
      }
      snap_ = m.snap;
      PRAFT_LOG(kInfo) << "raft " << group_.self << " installed snapshot @"
                       << m.snap.last_index;
    }
  }
  InstallSnapshotReply reply{term_, group_.self, applier_.applied()};
  persister_.send(m.leader, Message{reply}, wire_size(reply));
}

storage::RecoveryStats RaftNode::recover(const storage::DurableImage& img) {
  PRAFT_CHECK_MSG(role_ == Role::kFollower && last_index() == 0 && term_ == 0,
                  "recover() must run once, on a fresh node, before start()");
  recovering_ = true;
  term_ = img.hard.term;
  voted_for_ = img.hard.vote;
  if (img.snap.valid()) {
    // State transfer from our own disk: the snapshot stands in for the WAL
    // prefix it covers, exactly like a peer-shipped InstallSnapshot.
    applier_.install_snapshot(img.snap);
    snap_ = img.snap;
  }
  const storage::RecoveryStats stats = mirror_.replay(img);
  recovering_ = false;
  PRAFT_LOG(kInfo) << "raft " << group_.self << " recovered: term " << term_
                   << ", log to " << last_index() << " (" << stats.replayed
                   << " replayed above floor " << stats.snapshot_floor << ")";
  return stats;
}

void RaftNode::on_install_reply(const InstallSnapshotReply& m) {
  if (m.term > term_) {
    step_down(m.term);
    return;
  }
  if (role_ != Role::kLeader || m.term != term_) return;
  pipe_.on_ack(m.follower, m.last_index, env_.now());
  match_index_[m.follower] = std::max(match_index_[m.follower], m.last_index);
  next_index_[m.follower] =
      std::max(next_index_[m.follower], m.last_index + 1);
  advance_commit();
  if (next_index_[m.follower] <= last_index()) replicate_to(m.follower);
}

}  // namespace praft::raft
