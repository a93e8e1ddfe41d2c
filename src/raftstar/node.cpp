#include "raftstar/node.h"

#include <algorithm>

template class praft::raft::Core<praft::raftstar::Family>;

namespace praft::raftstar {

void RaftStarNode::store_entry(Entry e) {
  Core::store_entry(std::move(e));
  if (entry_observer_) entry_observer_(last_index(), log_.at(last_index()));
}

storage::RecoveryStats RaftStarNode::recover(
    const storage::DurableImage& img) {
  log_bal_ = img.hard.aux;
  return Core::recover(img);
}

VoteReply RaftStarNode::vote_reply(const RequestVote& m, bool granted) {
  // Appendix B.2 Phase1b: a voter whose log is LONGER but on an older last
  // term still votes (the §5.4.1 check in Core), and ships its extra
  // entries (Fig. 2a lines 14-16) for safe-value selection.
  VoteReply reply = Core::vote_reply(m, granted);
  if (!granted) return reply;
  reply.log_bal = log_bal_;
  // A candidate whose log ends below our snapshot base cannot receive those
  // entries as extras (they were compacted away): ship the checkpoint, and
  // extras resume above it.
  if (m.last_index < log_.base_index() && snap_.valid()) {
    reply.has_snap = true;
    reply.snap = snap_;
  }
  const LogIndex from = std::max(m.last_index, log_.base_index()) + 1;
  reply.extra_from = from;
  for (LogIndex i = from; i <= last_index(); ++i) {
    reply.extras.push_back(log_.at(i));
  }
  return reply;
}

void RaftStarNode::on_candidacy() {
  extras_.clear();
  election_snap_ = consensus::Snapshot{};  // a failed election's snapshot is
                                           // no voter's word in this one
  election_last_index_ = last_index();
}

void RaftStarNode::on_vote(const VoteReply& m) {
  if (!m.extras.empty()) {
    extras_.push_back(ExtraLog{m.log_bal, m.extra_from, m.extras});
  }
  if (m.has_snap && m.snap.last_index > election_snap_.last_index) {
    election_snap_ = m.snap;
  }
}

void RaftStarNode::become_leader() {
  // Compaction: a voter whose snapshot base is above our log shipped its
  // checkpoint instead of the compacted entries. Install the newest one
  // BEFORE safe-value selection, so the committed prefix it covers is never
  // refilled with no-ops. Where our log reaches past it we keep our
  // accepted suffix (Raft* never erases accepted entries): the values it
  // holds at committed indexes match the chosen ones by the ballot
  // discipline (log_bal >= the choosing ballot).
  if (election_snap_.valid()) {
    install_snapshot(election_snap_,
                     election_snap_.last_index <= last_index());
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

  log_bal_ = term_;  // the leader's implicit accept covers its whole log
  persister_.hard_state();
  // Full-suffix replacement semantics: every peer starts from the first
  // retained entry (index 1 until the first compaction); peers behind the
  // base get a snapshot from replicate_to. No term-start no-op is needed:
  // Raft* re-ballots every covered entry, so prior-term entries commit by
  // counting (the §5.4.2 rule is unnecessary).
  open_reign(log_.base_index() + 1);
  run_reign();
}

bool RaftStarNode::accept_append(const AppendEntries& m, LogIndex prev,
                                 size_t skip) {
  // Difference #2: refuse an append whose coverage is shorter than our log
  // instead of erasing our suffix (Appendix B.2 AcceptEntries requires
  // lIndex >= lastIndex); the leader resends the full suffix.
  const LogIndex coverage =
      m.prev_index + static_cast<LogIndex>(m.entries.size());
  if (coverage < last_index()) return false;
  // Replace the whole suffix after prev with the leader's entries, and stamp
  // the covered log at the append's ballot (difference #3).
  log_.truncate_after(prev);
  for (size_t k = skip; k < m.entries.size(); ++k) store_entry(m.entries[k]);
  log_bal_ = m.term;
  persister_.hard_state();
  return true;
}

AppendReply RaftStarNode::append_reply(bool ok, LogIndex match,
                                       LogIndex hint) {
  AppendReply reply = Core::append_reply(ok, match, hint);
  reply.follower_last = last_index();
  if (ok && reply_decorator_) reply.piggyback_ids = reply_decorator_();
  return reply;
}

void RaftStarNode::on_append_ok(const AppendReply& m) {
  if (append_reply_observer_) {
    append_reply_observer_(m.follower, m.match_index, m.piggyback_ids);
  }
}

void RaftStarNode::on_append_reject(const AppendReply& m) {
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
    back_off(m.follower, m.conflict_hint);
  }
  replicate_to(m.follower, /*uncapped=*/true);
}

void RaftStarNode::advance_commit() {
  if (role_ != Role::kLeader) return;
  // A durability barrier can clear before the leader maps are (re)built,
  // and with fewer known replicas than the quorum nothing is committable.
  const LogIndex target = quorum_match().value_or(0);
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

}  // namespace praft::raftstar
