#pragma once

#include <variant>
#include <vector>

#include "consensus/snapshot.h"
#include "consensus/types.h"
#include "kv/command.h"
#include "net/field_codec.h"

namespace praft::paxos {

using consensus::Ballot;
using consensus::LogIndex;

/// One accepted (ballot, value) pair for an instance, shipped in PrepareOk.
struct AcceptedVal {
  LogIndex index = 0;
  Ballot bal;
  kv::Command cmd;

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.index, m.bal, m.cmd); }

  friend bool operator==(const AcceptedVal&, const AcceptedVal&) = default;
};

/// Phase1a (Fig. 1): sent by a would-be leader with a fresh ballot.
struct Prepare {
  Ballot bal;
  NodeId sender = kNoNode;
  LogIndex from_index = 1;  // smallest unchosen instance id

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.bal, m.sender, m.from_index); }

  friend bool operator==(const Prepare&, const Prepare&) = default;
};

/// Phase1b reply: accepted values for all instances >= from_index.
struct PrepareOk {
  Ballot bal;
  NodeId sender = kNoNode;
  std::vector<AcceptedVal> accepted;
  /// Compaction: when the Prepare's from_index reaches below this
  /// acceptor's checkpoint floor, the pruned instances cannot be reported
  /// as accepted values — the checkpoint itself is shipped instead, and the
  /// new leader installs it before re-proposing. Without this the leader
  /// would fill chosen-and-compacted instances with no-ops.
  bool has_snap = false;
  consensus::Snapshot snap;

  template <class M, class F>
  static void fields(M& m, F&& f) {
    f(m.bal, m.sender, m.has_snap, m.accepted, net::when(m.has_snap, m.snap));
  }

  friend bool operator==(const PrepareOk&, const PrepareOk&) = default;
};

/// Phase2a, batched: values for consecutive instances [start, start+n).
/// `commit_floor` piggybacks the leader's contiguous-chosen watermark.
struct AcceptBatch {
  Ballot bal;
  NodeId sender = kNoNode;
  LogIndex start = 0;
  std::vector<kv::Command> cmds;
  LogIndex commit_floor = 0;

  template <class M, class F>
  static void fields(M& m, F&& f) {
    f(m.bal, m.sender, m.start, m.commit_floor, m.cmds);
  }

  friend bool operator==(const AcceptBatch&, const AcceptBatch&) = default;
};

/// Phase2b reply for a whole batch.
struct AcceptOkBatch {
  Ballot bal;
  NodeId sender = kNoNode;
  LogIndex start = 0;
  LogIndex count = 0;

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.bal, m.sender, m.start, m.count); }

  friend bool operator==(const AcceptOkBatch&, const AcceptOkBatch&) = default;
};

/// Rejection of a Prepare or Accept because a higher ballot was promised.
struct Reject {
  Ballot bal;  // the higher ballot the receiver has seen
  NodeId sender = kNoNode;

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.bal, m.sender); }

  friend bool operator==(const Reject&, const Reject&) = default;
};

/// Leader liveness + commit watermark when there is no traffic.
struct Heartbeat {
  Ballot bal;
  NodeId sender = kNoNode;
  LogIndex commit_floor = 0;

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.bal, m.sender, m.commit_floor); }

  friend bool operator==(const Heartbeat&, const Heartbeat&) = default;
};

/// A learner asking the leader for values it missed (holes below the floor).
struct LearnRequest {
  NodeId sender = kNoNode;
  LogIndex from = 0;
  LogIndex to = 0;

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.sender, m.from, m.to); }

  friend bool operator==(const LearnRequest&, const LearnRequest&) = default;
};

/// Explicit Learn: chosen values for instances [start, start+cmds.size()).
struct LearnValues {
  NodeId sender = kNoNode;
  LogIndex start = 0;
  std::vector<kv::Command> cmds;

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.sender, m.start, m.cmds); }

  friend bool operator==(const LearnValues&, const LearnValues&) = default;
};

/// Commit-floor snapshot learning: the answer to a LearnRequest whose range
/// reaches below the teacher's checkpoint floor. The learner installs the
/// state image and resumes instance-by-instance repair above it — the
/// MultiPaxos face of Raft's InstallSnapshot, read through the paper's
/// refinement mapping.
struct SnapshotTransfer {
  NodeId sender = kNoNode;
  consensus::Snapshot snap;

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.sender, m.snap); }

  friend bool operator==(const SnapshotTransfer&,
                         const SnapshotTransfer&) = default;
};

using Message =
    std::variant<Prepare, PrepareOk, AcceptBatch, AcceptOkBatch, Reject,
                 Heartbeat, LearnRequest, LearnValues, SnapshotTransfer>;

// Frame sizes derive from the fields lists above (net/field_codec.h).
using net::wire_size;

/// Log entries a message carries (for CPU cost accounting).
inline size_t entry_count(const Message& m) {
  if (const auto* ab = std::get_if<AcceptBatch>(&m)) return ab->cmds.size();
  if (const auto* po = std::get_if<PrepareOk>(&m)) return po->accepted.size();
  return 0;
}

}  // namespace praft::paxos
