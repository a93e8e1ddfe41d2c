#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "common/check.h"
#include "consensus/group.h"
#include "consensus/types.h"

namespace praft::consensus {
namespace {

Group make_group(NodeId self, std::initializer_list<NodeId> members) {
  Group g;
  g.self = self;
  g.members = members;
  return g;
}

TEST(GroupTest, QuorumArithmetic) {
  EXPECT_EQ(make_group(0, {0}).majority(), 1);
  EXPECT_EQ(make_group(0, {0, 1, 2}).majority(), 2);
  EXPECT_EQ(make_group(0, {0, 1, 2, 3, 4}).majority(), 3);
  EXPECT_EQ(make_group(0, {0, 1, 2, 3, 4}).f(), 2);
  EXPECT_EQ(make_group(0, {0, 1, 2, 3, 4, 5, 6}).f(), 3);
}

TEST(GroupTest, RankAndMembership) {
  const Group g = make_group(11, {10, 11, 12});
  EXPECT_TRUE(g.contains(10));
  EXPECT_FALSE(g.contains(99));
  EXPECT_EQ(g.rank_of(10), 0);
  EXPECT_EQ(g.rank_of(12), 2);
  EXPECT_THROW((void)g.rank_of(99), CheckFailure);
}

TEST(GroupTest, ValidateRejectsNonMemberSelf) {
  Group g = make_group(99, {0, 1, 2});
  EXPECT_THROW(g.validate(), CheckFailure);
  Group empty;
  empty.self = 0;
  EXPECT_THROW(empty.validate(), CheckFailure);
}

TEST(GroupTest, ValidateRejectsMoreMembersThanATallyHasBits) {
  Group g;
  g.self = 0;
  for (NodeId id = 0; id < Group::kMaxMembers; ++id) g.members.push_back(id);
  g.validate();
  g.members.push_back(Group::kMaxMembers);  // member 65
  EXPECT_THROW(g.validate(), CheckFailure);
}

TEST(QuorumTrackerTest, ARepeatedRankCountsOnce) {
  QuorumTracker t;
  EXPECT_TRUE(t.add(1));
  EXPECT_FALSE(t.add(1));  // duplicate
  EXPECT_EQ(t.count(), 1);
  EXPECT_FALSE(t.reached(2));
  EXPECT_TRUE(t.add(2));
  EXPECT_TRUE(t.reached(2));
  EXPECT_EQ(t.count(), 2);
}

TEST(QuorumTrackerTest, ZeroNeededIsReachedAtOnce) {
  QuorumTracker t;
  EXPECT_TRUE(t.reached(0));
  EXPECT_FALSE(t.reached(1));
}

TEST(QuorumTrackerTest, HasSeesEachRankUntilCleared) {
  QuorumTracker t;
  for (const int rank : {0, 5, 63}) EXPECT_TRUE(t.add(rank));
  for (int rank = 0; rank < Group::kMaxMembers; ++rank) {
    EXPECT_EQ(t.has(rank), rank == 0 || rank == 5 || rank == 63) << rank;
  }
  EXPECT_EQ(t.count(), 3);
  EXPECT_EQ(sizeof(QuorumTracker), 8u);
  t.clear();
  EXPECT_EQ(t.count(), 0);
  EXPECT_FALSE(t.has(0));
  EXPECT_FALSE(t.has(63));
  EXPECT_TRUE(t.add(63));  // a cleared rank counts again
  EXPECT_THROW(t.add(Group::kMaxMembers), CheckFailure);
  EXPECT_THROW(t.add(-1), CheckFailure);
}

TEST(QuorumIndexTest, KthLargestOfSelfAndPeers) {
  const std::map<NodeId, LogIndex> peers{{1, 10}, {2, 7}, {3, 3}, {4, 3}};
  EXPECT_EQ(quorum_index(10, peers, 1), 10);
  EXPECT_EQ(quorum_index(10, peers, 2), 10);
  EXPECT_EQ(quorum_index(10, peers, 3), 7);
  EXPECT_EQ(quorum_index(10, peers, 4), 3);
  EXPECT_EQ(quorum_index(10, peers, 5), 3);
  EXPECT_EQ(quorum_index(0, peers, 3), 3);  // self need not lead
  EXPECT_EQ(quorum_index(0, peers, 5), 0);
}

TEST(QuorumIndexTest, NothingWithFewerReplicasThanTheQuorum) {
  const std::map<NodeId, LogIndex> peers{{1, 4}, {2, 9}};
  EXPECT_EQ(quorum_index(7, peers, 4), std::nullopt);
  EXPECT_EQ(quorum_index(7, {}, 1), 7);
  EXPECT_EQ(quorum_index(7, {}, 2), std::nullopt);
}

TEST(BallotTest, LexicographicOrder) {
  EXPECT_LT((Ballot{1, 5}), (Ballot{2, 0}));
  EXPECT_LT((Ballot{2, 0}), (Ballot{2, 1}));
  EXPECT_EQ((Ballot{3, 3}), (Ballot{3, 3}));
  EXPECT_FALSE(Ballot{}.valid());
  EXPECT_TRUE((Ballot{0, 0}).valid());
}

TEST(WireTest, EntryBytesTrackCommandSize) {
  kv::Command small{kv::Op::kPut, 1, 1, 8, 0, 1};
  kv::Command big{kv::Op::kPut, 1, 1, 4096, 0, 1};
  EXPECT_LT(wire::entry_bytes(small), wire::entry_bytes(big));
  EXPECT_EQ(wire::entry_bytes(big) - wire::entry_bytes(small), 4096u - 8u);
}

}  // namespace
}  // namespace praft::consensus
