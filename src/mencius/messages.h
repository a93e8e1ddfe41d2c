#pragma once

#include <variant>
#include <vector>

#include "consensus/snapshot.h"
#include "consensus/types.h"
#include "kv/command.h"
#include "net/field_codec.h"

namespace praft::mencius {

using consensus::Ballot;
using consensus::LogIndex;

/// One (slot, value) pair proposed by a default leader.
struct OwnItem {
  LogIndex index = 0;
  kv::Command cmd;

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.index, m.cmd); }

  friend bool operator==(const OwnItem&, const OwnItem&) = default;
};

/// Ballot-0 fast path (coordinated Paxos): the default leader of these slots
/// proposes values without a phase 1. `decided_floor` is the owner's
/// watermark: all its own slots below it are decided at ballot 0 (or were
/// self-skipped); `rev_floor` is the highest own slot it knows was revoked —
/// receivers never auto-decide at or below it (see node.h).
struct AcceptOwn {
  NodeId owner = kNoNode;
  std::vector<OwnItem> items;
  LogIndex decided_floor = 0;
  LogIndex rev_floor = -1;

  template <class M, class F>
  static void fields(M& m, F&& f) {
    f(m.owner, m.decided_floor, m.rev_floor, m.items);
  }

  friend bool operator==(const AcceptOwn&, const AcceptOwn&) = default;
};

struct AcceptOwnOk {
  NodeId acceptor = kNoNode;
  std::vector<LogIndex> indexes;

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.acceptor, m.indexes); }

  friend bool operator==(const AcceptOwnOk&, const AcceptOwnOk&) = default;
};

/// Rejection of ballot-0 proposals into revoked slots; `jump_past` tells the
/// revived owner where its usable slot space resumes.
struct AcceptOwnRej {
  NodeId acceptor = kNoNode;
  std::vector<LogIndex> indexes;
  LogIndex jump_past = 0;

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.acceptor, m.jump_past, m.indexes); }

  friend bool operator==(const AcceptOwnRej&, const AcceptOwnRej&) = default;
};

/// The owner skips its own slots in [lo, hi) — they are decided no-ops
/// immediately (a coordinated-Paxos leader proposing no-op needs no phase 2
/// quorum to be learnable; paper §A.3).
struct SkipRange {
  NodeId owner = kNoNode;
  LogIndex lo = 0;
  LogIndex hi = 0;

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.owner, m.lo, m.hi); }

  friend bool operator==(const SkipRange&, const SkipRange&) = default;
};

/// Periodic liveness + watermark beacon (failure detector for revocation).
struct StatusBeat {
  NodeId from = kNoNode;
  LogIndex next_own = 0;
  LogIndex decided_floor = 0;
  LogIndex rev_floor = -1;

  template <class M, class F>
  static void fields(M& m, F&& f) {
    f(m.from, m.next_own, m.decided_floor, m.rev_floor);
  }

  friend bool operator==(const StatusBeat&, const StatusBeat&) = default;
};

/// Repair: ask `to`'s owner about the authoritative state of its slots.
struct LearnReq {
  NodeId from = kNoNode;
  LogIndex lo = 0;
  LogIndex hi = 0;  // exclusive

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.from, m.lo, m.hi); }

  friend bool operator==(const LearnReq&, const LearnReq&) = default;
};

struct SlotInfo {
  LogIndex index = 0;
  bool skipped = false;
  kv::Command cmd;

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.index, m.skipped, m.cmd); }

  friend bool operator==(const SlotInfo&, const SlotInfo&) = default;
};

/// Authoritative decided slots (from the owner, or from a revoker's decide
/// broadcast).
struct LearnVals {
  NodeId from = kNoNode;
  std::vector<SlotInfo> slots;

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.from, m.slots); }

  friend bool operator==(const LearnVals&, const LearnVals&) = default;
};

// --- Revocation: classic Paxos phase 1/2 over a crashed owner's slots. ---

struct RevPrepare {
  NodeId from = kNoNode;
  Ballot bal;
  NodeId owner = kNoNode;  // whose slots are being revoked
  LogIndex lo = 0;
  LogIndex hi = 0;  // exclusive

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.from, m.bal, m.owner, m.lo, m.hi); }

  friend bool operator==(const RevPrepare&, const RevPrepare&) = default;
};

struct RevAccepted {
  LogIndex index = 0;
  Ballot bal;
  bool has = false;
  bool skipped = false;
  kv::Command cmd;

  template <class M, class F>
  static void fields(M& m, F&& f) {
    f(m.index, m.bal, m.has, m.skipped, m.cmd);
  }

  friend bool operator==(const RevAccepted&, const RevAccepted&) = default;
};

struct RevPrepareOk {
  NodeId from = kNoNode;
  Ballot bal;
  std::vector<RevAccepted> accepted;

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.from, m.bal, m.accepted); }

  friend bool operator==(const RevPrepareOk&, const RevPrepareOk&) = default;
};

struct RevAccept {
  NodeId from = kNoNode;
  Ballot bal;
  std::vector<OwnItem> items;  // no-op cmd == skip

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.from, m.bal, m.items); }

  friend bool operator==(const RevAccept&, const RevAccept&) = default;
};

struct RevAcceptOk {
  NodeId from = kNoNode;
  Ballot bal;
  std::vector<LogIndex> indexes;

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.from, m.bal, m.indexes); }

  friend bool operator==(const RevAcceptOk&, const RevAcceptOk&) = default;
};

/// Snapshot state transfer: the answer to a LearnReq (or a revocation
/// prepare) whose range reaches below the sender's retained decision
/// history. The stalled replica installs the state image and resumes slot
/// execution above it — the Mencius face of Raft's InstallSnapshot, read
/// through the refinement mapping like the rest of the port.
struct SnapshotXfer {
  NodeId from = kNoNode;
  consensus::Snapshot snap;

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.from, m.snap); }

  friend bool operator==(const SnapshotXfer&, const SnapshotXfer&) = default;
};

using Message =
    std::variant<AcceptOwn, AcceptOwnOk, AcceptOwnRej, SkipRange, StatusBeat,
                 LearnReq, LearnVals, RevPrepare, RevPrepareOk, RevAccept,
                 RevAcceptOk, SnapshotXfer>;

// Frame sizes derive from the fields lists above (net/field_codec.h).
using net::wire_size;

/// Log entries a message carries (for CPU cost accounting).
inline size_t entry_count(const Message& m) {
  if (const auto* a = std::get_if<AcceptOwn>(&m)) return a->items.size();
  if (const auto* l = std::get_if<LearnVals>(&m)) return l->slots.size();
  if (const auto* r = std::get_if<RevAccept>(&m)) return r->items.size();
  if (const auto* p = std::get_if<RevPrepareOk>(&m)) return p->accepted.size();
  return 0;
}

}  // namespace praft::mencius
