#include <gtest/gtest.h>

#include "paxos/node.h"
#include "scripted_env.h"
#include "test_util.h"

namespace praft {
namespace {

using test::ApplyRecord;
using test::ScriptedEnv;

consensus::Group group_of(NodeId self, std::initializer_list<NodeId> members) {
  consensus::Group g;
  g.self = self;
  g.members = members;
  return g;
}

paxos::Options unit_options() {
  paxos::Options o;
  o.election_timeout_min = msec(150);
  o.election_timeout_max = msec(300);
  o.heartbeat_interval = msec(50);
  o.batch_delay = 0;
  return o;
}

net::Packet packet(NodeId from, NodeId to, paxos::Message m) {
  return test::packet(from, to, paxos::wire_size(m), std::move(m));
}

TEST(PaxosUnitTest, BallotOrdering) {
  consensus::Ballot a{1, 0}, b{1, 1}, c{2, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(a, c);
  EXPECT_FALSE(consensus::Ballot{}.valid());
  EXPECT_TRUE(a.valid());
}

TEST(PaxosUnitTest, PrepareHigherBallotPromotes) {
  ScriptedEnv env;
  paxos::PaxosNode n(group_of(1, {0, 1, 2}), env, unit_options());
  n.start();
  n.on_packet(packet(0, 1,
                     paxos::Message{paxos::Prepare{{5, 0}, 0, 1}}));
  auto sent = env.take_for(0);
  ASSERT_EQ(sent.size(), 1u);
  const auto* ok = std::get_if<paxos::PrepareOk>(
      std::any_cast<paxos::Message>(&sent[0].payload));
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->bal, (consensus::Ballot{5, 0}));
  EXPECT_EQ(n.ballot(), (consensus::Ballot{5, 0}));
}

TEST(PaxosUnitTest, PrepareLowerBallotRejected) {
  ScriptedEnv env;
  paxos::PaxosNode n(group_of(1, {0, 1, 2}), env, unit_options());
  n.start();
  n.on_packet(packet(0, 1, paxos::Message{paxos::Prepare{{5, 0}, 0, 1}}));
  env.clear();
  n.on_packet(packet(2, 1, paxos::Message{paxos::Prepare{{3, 2}, 2, 1}}));
  auto sent = env.take_for(2);
  ASSERT_EQ(sent.size(), 1u);
  const auto* rej = std::get_if<paxos::Reject>(
      std::any_cast<paxos::Message>(&sent[0].payload));
  ASSERT_NE(rej, nullptr);
  EXPECT_EQ(rej->bal, (consensus::Ballot{5, 0}));
}

TEST(PaxosUnitTest, PrepareOkCarriesAcceptedValues) {
  ScriptedEnv env;
  paxos::PaxosNode n(group_of(1, {0, 1, 2}), env, unit_options());
  n.start();
  // Accept a value at instance 1 from proposer 2 (ballot (1,2)).
  kv::Command c{kv::Op::kPut, 3, 33, 8, 9, 1};
  paxos::AcceptBatch ab{{1, 2}, 2, 1, {c}, 0};
  n.on_packet(packet(2, 1, paxos::Message{ab}));
  env.clear();
  // A later prepare must see it.
  n.on_packet(packet(0, 1, paxos::Message{paxos::Prepare{{5, 0}, 0, 1}}));
  auto sent = env.take_for(0);
  ASSERT_EQ(sent.size(), 1u);
  const auto* ok = std::get_if<paxos::PrepareOk>(
      std::any_cast<paxos::Message>(&sent[0].payload));
  ASSERT_NE(ok, nullptr);
  ASSERT_EQ(ok->accepted.size(), 1u);
  EXPECT_EQ(ok->accepted[0].index, 1);
  EXPECT_TRUE(ok->accepted[0].cmd == c);
  EXPECT_EQ(ok->accepted[0].bal, (consensus::Ballot{1, 2}));
}

TEST(PaxosUnitTest, NewLeaderReproposesSafeValue) {
  // The MultiPaxos safety core: a value accepted at a lower ballot must be
  // re-proposed (never replaced) by a higher-ballot leader.
  ScriptedEnv env;
  paxos::PaxosNode n(group_of(0, {0, 1, 2}), env, unit_options());
  n.start();
  n.force_election();  // ballot (1,0), prepare sent to 1 and 2
  env.clear();
  kv::Command c{kv::Op::kPut, 3, 33, 8, 9, 1};
  paxos::PrepareOk ok;
  ok.bal = {1, 0};
  ok.sender = 1;
  ok.accepted = {paxos::AcceptedVal{1, {0, 2}, c}};
  n.on_packet(packet(1, 0, paxos::Message{ok}));
  ASSERT_TRUE(n.is_leader());
  // The leader must have proposed c at instance 1.
  bool found = false;
  for (const auto& s : env.outbox) {
    const auto* m = std::any_cast<paxos::Message>(&s.payload);
    if (m == nullptr) continue;
    if (const auto* ab = std::get_if<paxos::AcceptBatch>(m)) {
      if (ab->start == 1 && !ab->cmds.empty() && ab->cmds[0] == c) found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(n.value_at(1) != nullptr && *n.value_at(1) == c, true);
}

TEST(PaxosUnitTest, AcceptorTracksHighestBallot) {
  ScriptedEnv env;
  paxos::PaxosNode n(group_of(1, {0, 1, 2}), env, unit_options());
  n.start();
  kv::Command c1{kv::Op::kPut, 1, 1, 8, 9, 1};
  kv::Command c2{kv::Op::kPut, 1, 2, 8, 9, 2};
  n.on_packet(packet(0, 1, paxos::Message{paxos::AcceptBatch{{2, 0}, 0, 1, {c1}, 0}}));
  env.clear();
  // A lower-ballot accept for the same instance is rejected.
  n.on_packet(packet(2, 1, paxos::Message{paxos::AcceptBatch{{1, 2}, 2, 1, {c2}, 0}}));
  auto sent = env.take_for(2);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_NE(std::get_if<paxos::Reject>(
                std::any_cast<paxos::Message>(&sent[0].payload)),
            nullptr);
  ASSERT_NE(n.value_at(1), nullptr);
  EXPECT_TRUE(*n.value_at(1) == c1);
  // A higher-ballot accept overwrites (never erases) the value.
  n.on_packet(packet(2, 1, paxos::Message{paxos::AcceptBatch{{9, 2}, 2, 1, {c2}, 0}}));
  ASSERT_NE(n.value_at(1), nullptr);
  EXPECT_TRUE(*n.value_at(1) == c2);
}

TEST(PaxosUnitTest, OutOfOrderChosenExecutesInOrder) {
  ScriptedEnv env;
  paxos::PaxosNode n(group_of(0, {0, 1, 2}), env, unit_options());
  std::vector<consensus::LogIndex> applied;
  n.set_apply([&](consensus::LogIndex i, const kv::Command&) {
    applied.push_back(i);
  });
  n.start();
  n.force_election();
  paxos::PrepareOk pok;
  pok.bal = {1, 0};
  pok.sender = 1;
  n.on_packet(packet(1, 0, paxos::Message{pok}));
  ASSERT_TRUE(n.is_leader());
  // Two instances in flight; instance 2's ack arrives first.
  n.submit(kv::Command{kv::Op::kPut, 1, 1, 8, 0, 1});
  n.submit(kv::Command{kv::Op::kPut, 2, 2, 8, 0, 2});
  env.advance(msec(5));  // flush
  n.on_packet(packet(1, 0, paxos::Message{paxos::AcceptOkBatch{{1, 0}, 1, 2, 1}}));
  EXPECT_TRUE(n.chosen_at(2));
  EXPECT_TRUE(applied.empty());  // instance 1 not chosen yet: no execution
  n.on_packet(packet(2, 0, paxos::Message{paxos::AcceptOkBatch{{1, 0}, 2, 1, 1}}));
  EXPECT_TRUE(n.chosen_at(1));
  ASSERT_EQ(applied.size(), 2u);
  EXPECT_EQ(applied[0], 1);
  EXPECT_EQ(applied[1], 2);
}

TEST(PaxosClusterTest, ElectsAndCommits) {
  harness::Cluster cluster(test::lan_config(21));
  cluster.build_replicas(test::make_factory<paxos::PaxosNode>(
      test::fast_options<paxos::Options>()));
  ASSERT_EQ(cluster.establish_leader(0), 0);
  cluster.metrics().set_window(0, kTimeMax);
  cluster.add_clients(2, test::small_workload(), cluster.sim().now());
  cluster.run_for(sec(5));
  EXPECT_GT(cluster.metrics().completed(), 500);
}

TEST(PaxosClusterTest, FailoverPreservesAgreement) {
  auto record = std::make_shared<ApplyRecord>();
  harness::Cluster cluster(test::lan_config(22));
  cluster.build_replicas(test::make_factory<paxos::PaxosNode>(
      test::fast_options<paxos::Options>(), record));
  ASSERT_EQ(cluster.establish_leader(0), 0);
  cluster.add_clients(2, test::small_workload(), cluster.sim().now());
  cluster.run_for(sec(2));
  const Time crash_at = cluster.sim().now();
  cluster.net().faults().crash(cluster.server(0).id(), crash_at,
                               crash_at + sec(5));
  cluster.run_for(sec(3));
  EXPECT_GE(cluster.leader_replica(), 1);
  cluster.run_for(sec(4));
  cluster.stop_clients();
  cluster.run_for(sec(3));
  EXPECT_FALSE(record->violation);
  EXPECT_TRUE(test::stores_converged(cluster));
}

TEST(PaxosClusterTest, ConvergesUnderMessageLoss) {
  auto record = std::make_shared<ApplyRecord>();
  harness::Cluster cluster(test::lan_config(23));
  cluster.build_replicas(test::make_factory<paxos::PaxosNode>(
      test::fast_options<paxos::Options>(), record));
  cluster.net().faults().set_drop_rate(0.05);
  ASSERT_GE(cluster.establish_leader(0), 0);
  cluster.add_clients(1, test::small_workload(), cluster.sim().now());
  cluster.run_for(sec(6));
  cluster.net().faults().set_drop_rate(0.0);
  cluster.stop_clients();
  cluster.run_for(sec(4));
  EXPECT_FALSE(record->violation);
  EXPECT_TRUE(test::stores_converged(cluster));
}

}  // namespace
}  // namespace praft
