#pragma once

#include <compare>
#include <cstdint>
#include <functional>

#include "common/types.h"
#include "kv/command.h"

namespace praft::consensus {

/// Raft term / Paxos ballot round. Terms start at 0 (no leader yet).
using Term = int64_t;

/// Position in the replicated log. Valid entries start at index 1; index 0 is
/// the sentinel (term 0) so AppendEntries prev-checks need no special cases.
using LogIndex = int64_t;

/// Globally unique Paxos ballot: (round, proposer id), ordered
/// lexicographically — the classic construction for distinct proposals.
struct Ballot {
  Term round = -1;
  NodeId node = kNoNode;

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.round, m.node); }

  friend auto operator<=>(const Ballot&, const Ballot&) = default;
  [[nodiscard]] bool valid() const { return round >= 0; }
};

/// The protocol-agnostic shape of a node's *hard state* — the part of its
/// state that must survive a crash because some message it sent depended on
/// it (Raft §5: currentTerm/votedFor; Paxos: the promise). Each protocol maps
/// its own fields onto the five scalars; every field a protocol uses is
/// MONOTONE over any single execution, which is what lets the chaos checker
/// state crash-recovery safety generically: a recovered node's hard state may
/// never be older than the hard state any message it sent depended on.
///
///   field  | Raft       | Raft*      | MultiPaxos      | Mencius
///   -------+------------+------------+-----------------+--------------------
///   term   | currentTerm| currentTerm| promised round   | max promised round
///   vote   | votedFor   | votedFor   | promised node    | (unused)
///   floor  | (unused)   | (unused)   | (unused)         | next own slot
///   aux    | (unused)   | log ballot | (unused)         | revocation round
///   tail   | (unused)   | (unused)   | accepted tail    | own revoked floor
///
/// (term, vote) order lexicographically (a Paxos ballot); floor/aux/tail are
/// plain monotone counters. -1 / kNoNode mean "not tracked by this protocol".
struct HardState {
  Term term = 0;
  NodeId vote = kNoNode;
  LogIndex floor = -1;
  Term aux = 0;
  LogIndex tail = -1;

  friend bool operator==(const HardState&, const HardState&) = default;
};

/// Delivered exactly once per log position, in log order, once the position
/// is committed/chosen and all earlier positions have been delivered.
using ApplyFn = std::function<void(LogIndex, const kv::Command&)>;

/// Message sizes derive from each message's `fields` list (net/field_codec.h),
/// so `encode(m).size() == wire_size(m)` by construction, and the transport
/// charges every send its codec's size (net::Codec::size): senders never
/// pass one. The batchers and the WAL size queued commands before any
/// message exists; this is the one size they share.
namespace wire {
/// One log entry on the wire: slot-or-term i64 + the command.
inline size_t entry_bytes(const kv::Command& c) { return 8 + c.wire_bytes(); }
}  // namespace wire

}  // namespace praft::consensus
