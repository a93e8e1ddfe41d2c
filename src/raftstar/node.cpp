#include "raftstar/node.h"

#include <algorithm>

#include "common/check.h"
#include "common/logging.h"

namespace praft::raftstar {

RaftStarNode::RaftStarNode(consensus::Group group, consensus::Env& env,
                           Options opt, storage::DurableStore* store)
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

void RaftStarNode::start() { election_.start(); }

void RaftStarNode::note_appended() {
  mirror_.note_appended([this] {
    if (role_ == Role::kLeader) advance_commit();
  });
}

void RaftStarNode::store_entry(Entry e) {
  log_.append(std::move(e));
  if (entry_observer_) entry_observer_(last_index(), log_.at(last_index()));
}

Term RaftStarNode::term_at(LogIndex i) const { return log_.at(i).term; }

void RaftStarNode::start_election() {
  ++term_;
  role_ = Role::kCandidate;
  leader_ = kNoNode;
  voted_for_ = group_.self;
  votes_ = consensus::QuorumTracker(group_.majority());
  votes_.add(group_.self);
  extras_.clear();
  election_snap_ = consensus::Snapshot{};  // a failed election's snapshot is
                                           // no voter's word in this one
  election_last_index_ = last_index();
  persister_.hard_state();  // the self-vote must survive a crash
  election_.touch();
  PRAFT_LOG(kDebug) << "raft* " << group_.self << " starts election term "
                    << term_;
  RequestVote rv{term_, group_.self, last_index(), term_at(last_index())};
  for (NodeId peer : group_.members) {
    if (peer == group_.self) continue;
    persister_.send(peer, Message{rv}, wire_size(rv));
  }
  if (votes_.reached()) become_leader();
}

void RaftStarNode::step_down(Term t) {
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

void RaftStarNode::on_packet(const net::Packet& p) {
  const auto* msg = net::payload_as<Message>(p);
  PRAFT_CHECK_MSG(msg != nullptr, "raft* node got foreign payload");
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

void RaftStarNode::on_request_vote(const RequestVote& m) {
  if (m.term > term_) step_down(m.term);
  VoteReply reply;
  reply.term = term_;
  reply.voter = group_.self;
  if (m.term == term_ && (voted_for_ == kNoNode || voted_for_ == m.candidate)) {
    // Appendix B.2 Phase1b: empty log, or lastTerm <, or == and not longer
    // index-wise than the candidate... with one Raft* twist: a voter whose
    // log is LONGER but on an older last term still votes and ships its
    // extra entries (Fig. 2a lines 14-16) for safe-value selection.
    const Term my_last_term = term_at(last_index());
    const bool up_to_date =
        m.last_term > my_last_term ||
        (m.last_term == my_last_term && m.last_index >= last_index());
    if (up_to_date) {
      reply.granted = true;
      voted_for_ = m.candidate;
      persister_.hard_state();
      election_.touch();
      reply.log_bal = log_bal_;
      // A candidate whose log ends below our snapshot base cannot receive
      // those entries as extras (they were compacted away): ship the
      // checkpoint, and extras resume above it.
      if (m.last_index < log_.base_index() && snap_.valid()) {
        reply.has_snap = true;
        reply.snap = snap_;
      }
      const LogIndex from = std::max(m.last_index, log_.base_index()) + 1;
      reply.extra_from = from;
      for (LogIndex i = from; i <= last_index(); ++i) {
        reply.extras.push_back(log_.at(i));
      }
    }
  }
  if (reply.granted && opt_.unsafe_skip_vote_fsync) {
    // TEST-ONLY injected bug: the reply leaves before the vote hits disk.
    persister_.send_unsynced(m.candidate, Message{reply}, wire_size(reply));
  } else {
    persister_.send(m.candidate, Message{reply}, wire_size(reply));
  }
}

void RaftStarNode::on_vote_reply(const VoteReply& m) {
  if (m.term > term_) {
    step_down(m.term);
    return;
  }
  if (role_ != Role::kCandidate || m.term != term_ || !m.granted) return;
  if (votes_.add(m.voter)) {
    if (!m.extras.empty()) {
      extras_.push_back(ExtraLog{m.log_bal, m.extra_from, m.extras});
    }
    if (m.has_snap && m.snap.last_index > election_snap_.last_index) {
      election_snap_ = m.snap;
    }
  }
  if (votes_.reached()) become_leader();
}

void RaftStarNode::become_leader() {
  // Compaction: a voter whose snapshot base is above our log shipped its
  // checkpoint instead of the compacted entries. Install the newest one
  // BEFORE safe-value selection, so the committed prefix it covers is never
  // refilled with no-ops.
  if (election_snap_.valid() && applier_.install_snapshot(election_snap_)) {
    ++snapshots_installed_;
    persister_.snapshot(election_snap_);
    if (election_snap_.last_index <= last_index() &&
        election_snap_.last_index > log_.base_index()) {
      // Keep our accepted suffix (Raft* never erases accepted entries); the
      // values it holds at committed indexes match the chosen ones by the
      // ballot discipline (log_bal >= the choosing ballot).
      log_.compact_to(election_snap_.last_index);
    } else if (election_snap_.last_index > last_index()) {
      // Everything we held is inside the committed checkpoint: superseded.
      log_.reset_to(election_snap_.last_index,
                    Entry{election_snap_.last_term, {}});
    }
    snap_ = election_snap_;
    PRAFT_LOG(kInfo) << "raft* " << group_.self
                     << " installed election snapshot @"
                     << election_snap_.last_index;
  }
  election_snap_ = consensus::Snapshot{};

  // BecomeLeader (Fig. 2a lines 18-29): extend our log with the safe value
  // for every index past our last_index — the value from the reply with the
  // highest log ballot — re-stamped at the current term. Indexes at or
  // below the (possibly just-installed) snapshot base are settled.
  const LogIndex adopt_from =
      std::max(election_last_index_, log_.base_index());
  LogIndex max_extra = adopt_from;
  for (const auto& ex : extras_) {
    max_extra = std::max(
        max_extra, ex.from + static_cast<LogIndex>(ex.entries.size()) - 1);
  }
  for (LogIndex i = adopt_from + 1; i <= max_extra; ++i) {
    Term best_bal = -1;
    const Entry* best = nullptr;
    for (const auto& ex : extras_) {
      const LogIndex off = i - ex.from;
      if (off < 0 || off >= static_cast<LogIndex>(ex.entries.size())) continue;
      if (ex.log_bal > best_bal) {
        best_bal = ex.log_bal;
        best = &ex.entries[static_cast<size_t>(off)];
      }
    }
    // Gaps cannot occur (extras are contiguous suffixes), but guard anyway.
    Entry e;
    e.term = term_;
    e.cmd = best != nullptr ? best->cmd : kv::noop_command();
    store_entry(e);
  }
  extras_.clear();

  role_ = Role::kLeader;
  leader_ = group_.self;
  log_bal_ = term_;  // the leader's implicit accept covers its whole log
  persister_.hard_state();
  next_index_.clear();
  match_index_.clear();
  pipe_.reset_all();
  for (NodeId peer : group_.members) {
    if (peer == group_.self) continue;
    // Full-suffix replacement semantics: start from the first retained
    // entry (index 1 until the first compaction). Peers behind the base
    // get a snapshot from replicate_to.
    next_index_[peer] = log_.base_index() + 1;
    match_index_[peer] = 0;
  }
  PRAFT_LOG(kInfo) << "raft* " << group_.self << " leader at term " << term_;
  // No term-start no-op needed: Raft* re-ballots every covered entry, so
  // prior-term entries commit by counting (the §5.4.2 rule is unnecessary).
  note_appended();  // safe-value adoptions above must reach disk to count
  broadcast_append();
  heartbeat_.start(opt_.heartbeat_interval);
}

LogIndex RaftStarNode::submit(const kv::Command& cmd) {
  if (role_ != Role::kLeader) return -1;
  // Backpressure: a full replication pipe refuses new submissions (temporary
  // -1, retried by the harness) instead of growing leader memory unboundedly.
  if (!batcher_.can_accept()) return -1;
  store_entry(Entry{term_, cmd});
  note_appended();
  batcher_.add_pending(wire::entry_bytes(cmd));
  return last_index();
}

void RaftStarNode::broadcast_append() {
  for (NodeId peer : group_.members) {
    if (peer == group_.self) continue;
    replicate_to(peer);
  }
  advance_commit();
}

void RaftStarNode::replicate_to(NodeId peer, bool uncapped) {
  // Pump loop (see RaftNode::replicate_to): batches stream until the peer
  // catches up or its in-flight window (consensus::PeerPipeline) closes.
  // An uncapped reject-resend follows an on_reject that just emptied the
  // window, so the full-suffix replacement is always admitted.
  bool sent_any = false;
  for (;;) {
    const LogIndex next = next_index_[peer];
    PRAFT_CHECK(next >= 1);
    if (next <= log_.base_index()) {
      // The follower is behind our compacted prefix: state transfer instead
      // of log replay (same catch-up shape as Raft — see RaftNode).
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
    const size_t bytes = wire_size(ae);
    persister_.send(peer, Message{ae}, bytes);
    // Empty keep-alives stay untracked and ungated (see RaftNode).
    if (!has_new) return;
    pipe_.on_send(peer, next, hi, bytes, env_.now());
    next_index_[peer] = hi + 1;
    sent_any = true;
  }
}

void RaftStarNode::probe_retransmits() {
  // Loss detection (see RaftNode::probe_retransmits): unwind the window and
  // roll nextIndex back to the lowest un-acked position; the heartbeat's
  // broadcast_append re-sends from there.
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

void RaftStarNode::on_append_entries(const AppendEntries& m) {
  if (m.term < term_) {
    AppendReply reply{term_, group_.self, false, 0, last_index(), 0, {}};
    persister_.send(m.leader, Message{reply}, wire_size(reply));
    return;
  }
  step_down(m.term);
  leader_ = m.leader;
  election_.touch();

  const LogIndex coverage =
      m.prev_index + static_cast<LogIndex>(m.entries.size());

  // Compaction clamp (see RaftNode::on_append_entries): entries at or below
  // our snapshot base are committed and applied here; skip them and resume
  // the suffix replacement at the base sentinel.
  LogIndex prev = m.prev_index;
  size_t skip = 0;
  if (prev < log_.base_index()) {
    const LogIndex covered = std::min(
        static_cast<LogIndex>(m.entries.size()), log_.base_index() - prev);
    skip = static_cast<size_t>(covered);
    prev += covered;
    if (prev < log_.base_index()) {
      // The whole append predates our snapshot: ack it as matched.
      AppendReply reply;
      reply.term = term_;
      reply.follower = group_.self;
      reply.ok = true;
      reply.match_index = coverage;
      reply.follower_last = last_index();
      if (reply_decorator_) reply.piggyback_ids = reply_decorator_();
      persister_.send(m.leader, Message{reply}, wire_size(reply));
      return;
    }
  }

  const bool prev_ok =
      skip > 0 ||
      (m.prev_index <= last_index() && term_at(m.prev_index) == m.prev_term);
  // Raft* difference #2: reject appends whose coverage is shorter than our
  // log instead of erasing our suffix (Appendix B.2 AcceptEntries requires
  // lIndex >= lastIndex).
  if (!prev_ok || coverage < last_index()) {
    AppendReply reply;
    reply.term = term_;
    reply.follower = group_.self;
    reply.ok = false;
    reply.follower_last = last_index();
    // conflict_hint == 0 means "prev matched but coverage was too short:
    // resend from the same prev with the full suffix"; otherwise it is the
    // index the leader should back off to.
    reply.conflict_hint =
        prev_ok ? 0
                : std::max<LogIndex>(1, std::min(last_index() + 1, m.prev_index));
    persister_.send(m.leader, Message{reply}, wire_size(reply));
    return;
  }

  // Replace the whole suffix after prev with the leader's entries, and stamp
  // the covered log at the append's ballot (difference #3).
  log_.truncate_after(prev);
  for (size_t k = skip; k < m.entries.size(); ++k) store_entry(m.entries[k]);
  log_bal_ = m.term;
  persister_.hard_state();
  note_appended();

  commit_to(std::min(m.commit, last_index()));
  AppendReply reply;
  reply.term = term_;
  reply.follower = group_.self;
  reply.ok = true;
  reply.match_index = coverage;
  reply.follower_last = last_index();
  if (reply_decorator_) reply.piggyback_ids = reply_decorator_();
  persister_.send(m.leader, Message{reply}, wire_size(reply));
}

void RaftStarNode::on_append_reply(const AppendReply& m) {
  if (m.term > term_) {
    step_down(m.term);
    return;
  }
  if (role_ != Role::kLeader || m.term != term_) return;
  if (m.ok) {
    // Cumulative ack: retires every in-flight batch the match index covers
    // (and feeds the peer's RTT estimate for adaptive retransmit timeouts).
    pipe_.on_ack(m.follower, m.match_index, env_.now());
    match_index_[m.follower] = std::max(match_index_[m.follower], m.match_index);
    next_index_[m.follower] =
        std::max(next_index_[m.follower], m.match_index + 1);
    if (append_reply_observer_) {
      append_reply_observer_(m.follower, m.match_index, m.piggyback_ids);
    }
    advance_commit();
    if (next_index_[m.follower] <= last_index()) replicate_to(m.follower);
  } else {
    // Unwind everything pipelined behind the rejected batch before backing
    // off — the full-replacement resend below supersedes it all.
    pipe_.on_reject(m.follower);
    if (m.follower_last > last_index()) {
      // The follower's log is longer than ours. Extend our log with no-ops so
      // our coverage can overwrite its (necessarily uncommitted) suffix; the
      // safe-value selection at election time already recovered anything
      // that could have been committed.
      while (last_index() < m.follower_last) {
        store_entry(Entry{term_, kv::noop_command()});
      }
      note_appended();
    }
    if (m.conflict_hint == 0) {
      // Coverage was too short; resend the whole retained suffix
      // (full-replacement semantics make prev = base always valid).
      next_index_[m.follower] = log_.base_index() + 1;
    } else {
      next_index_[m.follower] = std::max<LogIndex>(
          1, std::min(next_index_[m.follower] - 1, m.conflict_hint));
    }
    replicate_to(m.follower, /*uncapped=*/true);
  }
}

void RaftStarNode::advance_commit() {
  if (role_ != Role::kLeader) return;
  // Self counts only its durable prefix, as in RaftNode::advance_commit; a
  // durability barrier can clear before the leader maps are (re)built, and
  // with fewer known replicas than the quorum nothing is committable.
  const LogIndex target =
      consensus::quorum_index(mirror_.durable_index(), match_index_,
                              opt_.commit_quorum(group_.majority()))
          .value_or(0);
  // No current-term check: every successful reply re-accepted the covered
  // prefix at this term's ballot (LeaderLearn in Fig. 2b).
  LogIndex allowed = commit_index();
  while (allowed < target) {
    const LogIndex next = allowed + 1;
    if (commit_gate_ && !commit_gate_(next)) break;  // PQL holder gating
    allowed = next;
  }
  commit_to(allowed);
}

void RaftStarNode::commit_to(LogIndex target) {
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

void RaftStarNode::maybe_compact(bool force) {
  if (recovering_ || !applier_.can_snapshot()) return;
  const LogIndex target = applier_.applied();
  const auto compactable = static_cast<size_t>(target - log_.base_index());
  if (!compaction_.due(opt_, compactable, env_.now(), force)) return;
  snap_.last_index = target;
  snap_.last_term = term_at(target);
  snap_.state = applier_.capture_state();
  log_.compact_to(target);
  persister_.snapshot(snap_);
  compaction_.fired(env_.now());
  PRAFT_LOG(kDebug) << "raft* " << group_.self << " compacted log to "
                    << target;
}

void RaftStarNode::send_snapshot(NodeId peer) {
  PRAFT_CHECK_MSG(snap_.valid() && snap_.last_index == log_.base_index(),
                  "snapshot does not cover the compacted prefix");
  InstallSnapshot is{term_, group_.self, snap_};
  const size_t bytes = wire_size(is);
  persister_.send(peer, Message{is}, bytes);
  // The snapshot occupies the window like any batch (see RaftNode).
  pipe_.on_send(peer, next_index_[peer], snap_.last_index, bytes, env_.now());
  next_index_[peer] = snap_.last_index + 1;  // optimistic (see RaftNode)
}

void RaftStarNode::on_install_snapshot(const InstallSnapshot& m) {
  if (m.term >= term_) {
    step_down(m.term);
    leader_ = m.leader;
    election_.touch();
    if (applier_.install_snapshot(m.snap)) {
      ++snapshots_installed_;
      persister_.snapshot(m.snap);
      if (m.snap.last_index <= last_index() &&
          m.snap.last_index > log_.base_index() &&
          term_at(m.snap.last_index) == m.snap.last_term) {
        log_.compact_to(m.snap.last_index);  // retain the matching suffix
      } else {
        log_.reset_to(m.snap.last_index, Entry{m.snap.last_term, {}});
      }
      snap_ = m.snap;
      PRAFT_LOG(kInfo) << "raft* " << group_.self << " installed snapshot @"
                       << m.snap.last_index;
    }
  }
  InstallSnapshotReply reply{term_, group_.self, applier_.applied()};
  persister_.send(m.leader, Message{reply}, wire_size(reply));
}

storage::RecoveryStats RaftStarNode::recover(
    const storage::DurableImage& img) {
  PRAFT_CHECK_MSG(role_ == Role::kFollower && last_index() == 0 && term_ == 0,
                  "recover() must run once, on a fresh node, before start()");
  recovering_ = true;
  term_ = img.hard.term;
  voted_for_ = img.hard.vote;
  log_bal_ = img.hard.aux;
  if (img.snap.valid()) {
    applier_.install_snapshot(img.snap);
    snap_ = img.snap;
  }
  const storage::RecoveryStats stats = mirror_.replay(img);
  recovering_ = false;
  PRAFT_LOG(kInfo) << "raft* " << group_.self << " recovered: term " << term_
                   << ", log to " << last_index() << " at ballot " << log_bal_;
  return stats;
}

void RaftStarNode::on_install_reply(const InstallSnapshotReply& m) {
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

}  // namespace praft::raftstar
