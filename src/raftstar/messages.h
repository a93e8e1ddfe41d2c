#pragma once

#include <variant>
#include <vector>

#include "consensus/snapshot.h"
#include "consensus/types.h"
#include "kv/command.h"
#include "net/field_codec.h"

namespace praft::raftstar {

using consensus::LogIndex;
using consensus::Term;

/// A Raft* log entry. `term` is the creation term (used for the prev-check),
/// while the *ballot* of every entry is the node-level `log_bal` watermark:
/// Raft*'s AcceptEntries sets logBallot[i] = append.term for ALL i <= lIndex
/// (Appendix B.2), so per-entry ballots are always uniform across one log —
/// the LogBallotInv invariant. We exploit that to store it once per node.
struct Entry {
  Term term = 0;
  kv::Command cmd;

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.term, m.cmd); }

  friend bool operator==(const Entry&, const Entry&) = default;
};

struct RequestVote {
  Term term = 0;
  NodeId candidate = kNoNode;
  LogIndex last_index = 0;
  Term last_term = 0;

  template <class M, class F>
  static void fields(M& m, F&& f) {
    f(m.term, m.candidate, m.last_index, m.last_term);
  }

  friend bool operator==(const RequestVote&, const RequestVote&) = default;
};

/// Raft* difference #1 (paper §3): an OK reply carries the voter's extra
/// entries beyond the candidate's last_index, plus the voter's log ballot so
/// the candidate can pick safe values (highest ballot per index).
struct VoteReply {
  Term term = 0;
  NodeId voter = kNoNode;
  bool granted = false;
  Term log_bal = -1;
  LogIndex extra_from = 0;     // first index in `extras`
  std::vector<Entry> extras;   // voter's entries after candidate.last_index
  /// Compaction: when the candidate's log ends below the voter's snapshot
  /// base, the voter cannot ship those entries — it ships its checkpoint
  /// instead (extras then start at the voter's base + 1). Without this a
  /// winning candidate would fill committed, compacted-away indexes with
  /// no-ops in BecomeLeader's safe-value selection.
  bool has_snap = false;
  consensus::Snapshot snap;

  template <class M, class F>
  static void fields(M& m, F&& f) {
    f(m.term, m.voter, m.granted, m.log_bal, m.extra_from, m.has_snap, m.extras,
      net::when(m.has_snap, m.snap));
  }

  friend bool operator==(const VoteReply&, const VoteReply&) = default;
};

struct AppendEntries {
  Term term = 0;
  NodeId leader = kNoNode;
  LogIndex prev_index = 0;
  Term prev_term = 0;
  std::vector<Entry> entries;
  LogIndex commit = 0;

  template <class M, class F>
  static void fields(M& m, F&& f) {
    f(m.term, m.leader, m.prev_index, m.prev_term, m.commit, m.entries);
  }

  friend bool operator==(const AppendEntries&, const AppendEntries&) = default;
};

struct AppendReply {
  Term term = 0;
  NodeId follower = kNoNode;
  bool ok = false;
  LogIndex match_index = 0;    // on success: prev + |entries|
  LogIndex follower_last = 0;  // follower's last index (both cases)
  LogIndex conflict_hint = 0;  // on prev-mismatch: back-off target
  /// Optimization piggyback (paper Fig. 13 line 16): Raft*-PQL attaches the
  /// lease holders granted by the replier. Empty for plain Raft*.
  std::vector<NodeId> piggyback_ids;

  template <class M, class F>
  static void fields(M& m, F&& f) {
    f(m.term, m.follower, m.ok, m.match_index, m.follower_last, m.conflict_hint,
      m.piggyback_ids);
  }

  friend bool operator==(const AppendReply&, const AppendReply&) = default;
};

/// Snapshot state transfer: identical in shape to Raft's (the protocols are
/// structurally parallel down to their catch-up path).
struct InstallSnapshot {
  Term term = 0;
  NodeId leader = kNoNode;
  consensus::Snapshot snap;

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.term, m.leader, m.snap); }

  friend bool operator==(const InstallSnapshot&,
                         const InstallSnapshot&) = default;
};

struct InstallSnapshotReply {
  Term term = 0;
  NodeId follower = kNoNode;
  LogIndex last_index = 0;  // follower's applied watermark after the install

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.term, m.follower, m.last_index); }

  friend bool operator==(const InstallSnapshotReply&,
                         const InstallSnapshotReply&) = default;
};

using Message = std::variant<RequestVote, VoteReply, AppendEntries, AppendReply,
                             InstallSnapshot, InstallSnapshotReply>;

// Frame sizes derive from the fields lists above (net/field_codec.h).
using net::wire_size;

/// Log entries a message carries (for CPU cost accounting).
inline size_t entry_count(const Message& m) {
  const auto* ae = std::get_if<AppendEntries>(&m);
  return ae == nullptr ? 0 : ae->entries.size();
}

}  // namespace praft::raftstar
