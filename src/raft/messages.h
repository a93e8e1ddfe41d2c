#pragma once

#include <variant>
#include <vector>

#include "consensus/snapshot.h"
#include "consensus/types.h"
#include "kv/command.h"
#include "net/field_codec.h"

namespace praft::raft {

using consensus::LogIndex;
using consensus::Term;

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

struct VoteReply {
  Term term = 0;
  NodeId voter = kNoNode;
  bool granted = false;

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.term, m.voter, m.granted); }

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
  LogIndex conflict_hint = 0;  // on failure: where the leader should back off

  template <class M, class F>
  static void fields(M& m, F&& f) {
    f(m.term, m.follower, m.ok, m.match_index, m.conflict_hint);
  }

  friend bool operator==(const AppendReply&, const AppendReply&) = default;
};

/// Snapshot state transfer (Raft §7): the leader ships its retained
/// checkpoint to a follower whose nextIndex fell behind the leader's
/// compacted log prefix. Replaces replaying the discarded entries.
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

}  // namespace praft::raft
