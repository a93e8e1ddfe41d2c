#pragma once

#include <map>
#include <optional>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "consensus/types.h"

namespace praft::consensus {

/// Static membership of a consensus group (the paper never reconfigures).
struct Group {
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

  /// Index of `id` within members (used for Mencius round-robin ownership).
  [[nodiscard]] int rank_of(NodeId id) const {
    for (size_t i = 0; i < members.size(); ++i) {
      if (members[i] == id) return static_cast<int>(i);
    }
    PRAFT_CHECK_MSG(false, "node not in group");
    return -1;
  }

  void validate() const {
    PRAFT_CHECK(!members.empty());
    PRAFT_CHECK(contains(self));
  }
};

/// Tracks distinct acknowledgements toward a quorum.
class QuorumTracker {
 public:
  explicit QuorumTracker(int needed = 0) : needed_(needed) {}

  /// Returns true when this ack is new.
  bool add(NodeId id) {
    for (NodeId v : acks_) {
      if (v == id) return false;
    }
    acks_.push_back(id);
    return true;
  }

  [[nodiscard]] bool reached() const {
    return static_cast<int>(acks_.size()) >= needed_;
  }
  [[nodiscard]] int count() const { return static_cast<int>(acks_.size()); }
  [[nodiscard]] const std::vector<NodeId>& acks() const { return acks_; }

 private:
  int needed_;
  std::vector<NodeId> acks_;
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
