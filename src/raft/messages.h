#pragma once

#include <variant>
#include <vector>

#include "consensus/snapshot.h"
#include "consensus/types.h"
#include "kv/command.h"

namespace praft::raft {

using consensus::LogIndex;
using consensus::Term;

struct Entry {
  Term term = 0;
  kv::Command cmd;

  friend bool operator==(const Entry&, const Entry&) = default;
};

struct RequestVote {
  Term term = 0;
  NodeId candidate = kNoNode;
  LogIndex last_index = 0;
  Term last_term = 0;

  friend bool operator==(const RequestVote&, const RequestVote&) = default;
};

struct VoteReply {
  Term term = 0;
  NodeId voter = kNoNode;
  bool granted = false;

  friend bool operator==(const VoteReply&, const VoteReply&) = default;
};

struct AppendEntries {
  Term term = 0;
  NodeId leader = kNoNode;
  LogIndex prev_index = 0;
  Term prev_term = 0;
  std::vector<Entry> entries;
  LogIndex commit = 0;

  friend bool operator==(const AppendEntries&, const AppendEntries&) = default;
};

struct AppendReply {
  Term term = 0;
  NodeId follower = kNoNode;
  bool ok = false;
  LogIndex match_index = 0;    // on success: prev + |entries|
  LogIndex conflict_hint = 0;  // on failure: where the leader should back off

  friend bool operator==(const AppendReply&, const AppendReply&) = default;
};

/// Snapshot state transfer (Raft §7): the leader ships its retained
/// checkpoint to a follower whose nextIndex fell behind the leader's
/// compacted log prefix. Replaces replaying the discarded entries.
struct InstallSnapshot {
  Term term = 0;
  NodeId leader = kNoNode;
  consensus::Snapshot snap;

  friend bool operator==(const InstallSnapshot&,
                         const InstallSnapshot&) = default;
};

struct InstallSnapshotReply {
  Term term = 0;
  NodeId follower = kNoNode;
  LogIndex last_index = 0;  // follower's applied watermark after the install

  friend bool operator==(const InstallSnapshotReply&,
                         const InstallSnapshotReply&) = default;
};

using Message = std::variant<RequestVote, VoteReply, AppendEntries, AppendReply,
                             InstallSnapshot, InstallSnapshotReply>;

// Exact encoded frame sizes (see raft/wire.cpp for the field layout; every
// size below is frame header + the payload fields in declaration order).
namespace wire = consensus::wire;

inline size_t wire_size(const RequestVote&) {
  return wire::kFrame + 8 + 4 + 8 + 8;
}
inline size_t wire_size(const VoteReply&) { return wire::kFrame + 8 + 4 + 1; }
inline size_t wire_size(const AppendReply&) {
  return wire::kFrame + 8 + 4 + 1 + 8 + 8;
}
inline size_t wire_size(const InstallSnapshot& m) {
  return wire::kFrame + 8 + 4 + m.snap.wire_bytes();
}
inline size_t wire_size(const InstallSnapshotReply&) {
  return wire::kFrame + 8 + 4 + 8;
}
inline size_t wire_size(const AppendEntries& m) {
  size_t b = wire::kFrame + 8 + 4 + 8 + 8 + 8 + wire::kCount;
  for (const auto& e : m.entries) b += wire::entry_bytes(e.cmd);
  return b;
}

inline size_t wire_size(const Message& m) {
  return std::visit([](const auto& x) { return wire_size(x); }, m);
}

/// Log entries a message carries (for CPU cost accounting).
inline size_t entry_count(const Message& m) {
  const auto* ae = std::get_if<AppendEntries>(&m);
  return ae == nullptr ? 0 : ae->entries.size();
}

}  // namespace praft::raft
