#pragma once

#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "consensus/types.h"

namespace praft::consensus {

/// Static membership of a consensus group (the paper never reconfigures).
struct Group {
  /// A QuorumTracker holds one bit per member rank.
  static constexpr int kMaxMembers = 64;

  NodeId self = kNoNode;
  std::vector<NodeId> members;  // includes self

  [[nodiscard]] int n() const { return static_cast<int>(members.size()); }
  /// f in the paper's "f + 1" quorums: tolerated failures.
  [[nodiscard]] int f() const { return (n() - 1) / 2; }
  [[nodiscard]] int majority() const { return f() + 1; }

  [[nodiscard]] bool contains(NodeId id) const {
    for (NodeId m : members) {
      if (m == id) return true;
    }
    return false;
  }

  /// Index of `id` within members: Mencius round-robin ownership, and the
  /// bit a member's acknowledgement sets in a QuorumTracker.
  [[nodiscard]] int rank_of(NodeId id) const {
    for (size_t i = 0; i < members.size(); ++i) {
      if (members[i] == id) return static_cast<int>(i);
    }
    PRAFT_CHECK_MSG(false, "node not in group");
    return -1;
  }

  void validate() const {
    PRAFT_CHECK(!members.empty());
    PRAFT_CHECK(n() <= kMaxMembers);
    PRAFT_CHECK(contains(self));
  }
};

/// Distinct acknowledgements toward a quorum, one bit per member rank
/// (Group::rank_of): the tally of a Raft election, a Paxos prepare, and each
/// MultiPaxos instance and Mencius slot a node proposes. Eight bytes, and it
/// never allocates.
class QuorumTracker {
 public:
  /// Counts member `rank`; returns true when its ack is new.
  bool add(int rank) {
    const uint64_t bit = bit_of(rank);
    if ((ranks_ & bit) != 0) return false;
    ranks_ |= bit;
    return true;
  }
  [[nodiscard]] bool has(int rank) const {
    return (ranks_ & bit_of(rank)) != 0;
  }
  [[nodiscard]] int count() const { return std::popcount(ranks_); }
  [[nodiscard]] bool reached(int needed) const { return count() >= needed; }
  void clear() { ranks_ = 0; }

 private:
  static uint64_t bit_of(int rank) {
    PRAFT_CHECK(rank >= 0 && rank < Group::kMaxMembers);
    return uint64_t{1} << rank;
  }

  uint64_t ranks_ = 0;
};

/// The commit quorum's order statistic, shared by Raft and Raft*: the k-th
/// largest of {`self`, every peer's match index}, i.e. the highest index that
/// at least k replicas hold. nullopt when fewer than k replicas are known.
/// Allocation-free; O(n^2) over the group, which is a handful of replicas.
[[nodiscard]] inline std::optional<LogIndex> quorum_index(
    LogIndex self, const std::map<NodeId, LogIndex>& peers, int k) {
  std::optional<LogIndex> best;
  const auto consider = [&](LogIndex v) {
    if (best && v <= *best) return;
    int holders = self >= v ? 1 : 0;
    for (const auto& [peer, match] : peers) holders += match >= v ? 1 : 0;
    if (holders >= k) best = v;
  };
  consider(self);
  for (const auto& [peer, match] : peers) consider(match);
  return best;
}

}  // namespace praft::consensus
