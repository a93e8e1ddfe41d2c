#include "raft/node.h"

#include <algorithm>

namespace praft::raft {

template class Core<Family>;

void RaftNode::become_leader() {
  open_reign(last_index() + 1);
  // Commit a no-op to pull prior-term entries to commit (§5.4.2 workaround —
  // Raft cannot count replicas of old-term entries directly).
  log_.append(Entry{term_, kv::noop_command()});
  run_reign();
}

bool RaftNode::accept_append(const AppendEntries& m, LogIndex prev,
                             size_t skip) {
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
  return true;
}

void RaftNode::on_append_reject(const AppendReply& m) {
  back_off(m.follower, m.conflict_hint);
  replicate_to(m.follower);
}

void RaftNode::advance_commit() {
  // Highest index held by a quorum, committed only at a current-term entry
  // (§5.4.2: never commit old-term entries by counting). Log terms never
  // decrease, so if that index fails the check every lower one does too.
  const std::optional<LogIndex> quorum = quorum_match();
  if (!quorum) return;
  const LogIndex n = std::min(*quorum, last_index());
  if (n > commit_index() && term_at(n) == term_) commit_to(n);
}

}  // namespace praft::raft
