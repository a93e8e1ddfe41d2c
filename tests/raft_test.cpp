#include <gtest/gtest.h>

#include "raft/node.h"
#include "scripted_env.h"
#include "test_util.h"

namespace praft {
namespace {

using test::ApplyRecord;
using test::ScriptedEnv;

// ---------------------------------------------------------------------------
// Unit tests driving RaftNode directly through a scripted Env.
// ---------------------------------------------------------------------------

consensus::Group group_of(NodeId self, std::initializer_list<NodeId> members) {
  consensus::Group g;
  g.self = self;
  g.members = members;
  return g;
}

raft::Options unit_options() {
  raft::Options o;
  o.election_timeout_min = msec(150);
  o.election_timeout_max = msec(300);
  o.heartbeat_interval = msec(50);
  o.batch_delay = 0;
  return o;
}

net::Packet packet(NodeId from, NodeId to, raft::Message m) {
  return test::packet(from, to, raft::wire_size(m), std::move(m));
}

TEST(RaftUnitTest, CandidateBroadcastsRequestVote) {
  ScriptedEnv env;
  raft::RaftNode n(group_of(0, {0, 1, 2}), env, unit_options());
  n.start();
  n.force_election();
  EXPECT_EQ(n.role(), raft::Role::kCandidate);
  EXPECT_EQ(n.current_term(), 1);
  EXPECT_EQ(env.outbox.size(), 2u);
  const auto* rv = std::get_if<raft::RequestVote>(
      std::any_cast<raft::Message>(&env.outbox[0].payload));
  ASSERT_NE(rv, nullptr);
  EXPECT_EQ(rv->term, 1);
  EXPECT_EQ(rv->candidate, 0);
}

TEST(RaftUnitTest, VoterGrantsOncePerTerm) {
  ScriptedEnv env;
  raft::RaftNode n(group_of(1, {0, 1, 2}), env, unit_options());
  n.start();
  n.on_packet(packet(0, 1, raft::RequestVote{1, 0, 0, 0}));
  auto sent = env.take_for(0);
  ASSERT_EQ(sent.size(), 1u);
  const auto* r1 = std::get_if<raft::VoteReply>(
      std::any_cast<raft::Message>(&sent[0].payload));
  ASSERT_NE(r1, nullptr);
  EXPECT_TRUE(r1->granted);

  // Same term, different candidate: denied.
  n.on_packet(packet(2, 1, raft::RequestVote{1, 2, 0, 0}));
  sent = env.take_for(2);
  ASSERT_EQ(sent.size(), 1u);
  const auto* r2 = std::get_if<raft::VoteReply>(
      std::any_cast<raft::Message>(&sent[0].payload));
  ASSERT_NE(r2, nullptr);
  EXPECT_FALSE(r2->granted);
}

TEST(RaftUnitTest, VoterRejectsStaleLog) {
  ScriptedEnv env;
  raft::RaftNode n(group_of(1, {0, 1, 2}), env, unit_options());
  n.start();
  // Give the voter a log entry at term 2 via an append from leader 2.
  raft::AppendEntries ae;
  ae.term = 2;
  ae.leader = 2;
  ae.prev_index = 0;
  ae.prev_term = 0;
  ae.entries = {raft::Entry{2, kv::noop_command()}};
  ae.commit = 0;
  n.on_packet(packet(2, 1, raft::Message{ae}));
  env.clear();
  // Candidate with an empty log at a higher term: log is out of date.
  n.on_packet(packet(0, 1, raft::RequestVote{3, 0, 0, 0}));
  auto sent = env.take_for(0);
  ASSERT_EQ(sent.size(), 1u);
  const auto* r = std::get_if<raft::VoteReply>(
      std::any_cast<raft::Message>(&sent[0].payload));
  ASSERT_NE(r, nullptr);
  EXPECT_FALSE(r->granted);
  // But a candidate with the same last entry and equal length is fine.
  n.on_packet(packet(2, 1, raft::RequestVote{3, 2, 1, 2}));
  sent = env.take_for(2);
  const auto* r2 = std::get_if<raft::VoteReply>(
      std::any_cast<raft::Message>(&sent.back().payload));
  ASSERT_NE(r2, nullptr);
  EXPECT_TRUE(r2->granted);
}

TEST(RaftUnitTest, FollowerErasesConflictingSuffix) {
  // The Raft behaviour the paper singles out in §3: a follower with a longer
  // log erases its extra entries to match the leader.
  ScriptedEnv env;
  raft::RaftNode n(group_of(1, {0, 1, 2}), env, unit_options());
  n.start();
  // Old leader 2 (term 1) appends three entries.
  raft::AppendEntries ae;
  ae.term = 1;
  ae.leader = 2;
  ae.prev_index = 0;
  ae.prev_term = 0;
  kv::Command c1{kv::Op::kPut, 1, 11, 8, 9, 1};
  kv::Command c2{kv::Op::kPut, 2, 22, 8, 9, 2};
  kv::Command c3{kv::Op::kPut, 3, 33, 8, 9, 3};
  ae.entries = {raft::Entry{1, c1}, raft::Entry{1, c2}, raft::Entry{1, c3}};
  n.on_packet(packet(2, 1, raft::Message{ae}));
  EXPECT_EQ(n.last_index(), 3);
  env.clear();
  // New leader 0 (term 2) has only c1 plus its own entry at index 2.
  raft::AppendEntries ae2;
  ae2.term = 2;
  ae2.leader = 0;
  ae2.prev_index = 1;
  ae2.prev_term = 1;
  kv::Command cx{kv::Op::kPut, 9, 99, 8, 7, 1};
  ae2.entries = {raft::Entry{2, cx}};
  n.on_packet(packet(0, 1, raft::Message{ae2}));
  EXPECT_EQ(n.last_index(), 2);  // the conflicting suffix (c3) is erased
  EXPECT_EQ(n.entry_at(2).term, 2);
  EXPECT_TRUE(n.entry_at(2).cmd == cx);
}

TEST(RaftUnitTest, FollowerRejectsMismatchedPrev) {
  ScriptedEnv env;
  raft::RaftNode n(group_of(1, {0, 1, 2}), env, unit_options());
  n.start();
  raft::AppendEntries ae;
  ae.term = 1;
  ae.leader = 0;
  ae.prev_index = 5;  // hole: follower's log is empty
  ae.prev_term = 1;
  n.on_packet(packet(0, 1, raft::Message{ae}));
  auto sent = env.take_for(0);
  ASSERT_EQ(sent.size(), 1u);
  const auto* r = std::get_if<raft::AppendReply>(
      std::any_cast<raft::Message>(&sent[0].payload));
  ASSERT_NE(r, nullptr);
  EXPECT_FALSE(r->ok);
  EXPECT_EQ(r->conflict_hint, 1);
}

TEST(RaftUnitTest, FollowerAcksAnAppendBelowItsSnapshotBase) {
  // A late retransmit can land after the follower compacted past it: every
  // entry it carries is committed and applied here, so the follower acks it
  // as matched and leaves its log alone.
  ScriptedEnv env;
  raft::RaftNode n(group_of(1, {0, 1, 2}), env, unit_options());
  kv::KvStore store;
  test::attach_store(n, store);
  n.start();
  raft::AppendEntries ae;
  ae.term = 1;
  ae.leader = 0;
  for (uint64_t k = 1; k <= 4; ++k) {
    ae.entries.push_back(
        raft::Entry{1, kv::Command{kv::Op::kPut, k, k, 8, 9, k}});
  }
  ae.commit = 4;
  n.on_packet(packet(0, 1, raft::Message{ae}));
  n.compact();
  ASSERT_EQ(n.compaction_floor(), 4);
  env.clear();
  // The same leader's earlier batch covering 2-3.
  raft::AppendEntries late = ae;
  late.prev_index = 1;
  late.prev_term = 1;
  late.entries = {ae.entries[1], ae.entries[2]};
  n.on_packet(packet(0, 1, raft::Message{late}));
  auto sent = env.take_for(0);
  ASSERT_EQ(sent.size(), 1u);
  const auto* r = std::get_if<raft::AppendReply>(
      std::any_cast<raft::Message>(&sent[0].payload));
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->ok);
  EXPECT_EQ(r->match_index, 3);
  EXPECT_EQ(n.compaction_floor(), 4);
  EXPECT_EQ(n.last_index(), 4);
  EXPECT_EQ(n.applied_index(), 4);
}

TEST(RaftUnitTest, SubmitOnlyAtLeader) {
  ScriptedEnv env;
  raft::RaftNode n(group_of(0, {0, 1, 2}), env, unit_options());
  n.start();
  EXPECT_EQ(n.submit(kv::noop_command()), -1);
}

TEST(RaftUnitTest, SingleNodeGroupSelfCommits) {
  ScriptedEnv env;
  raft::RaftNode n(group_of(0, {0}), env, unit_options());
  std::vector<consensus::LogIndex> applied;
  n.set_apply([&](consensus::LogIndex i, const kv::Command&) {
    applied.push_back(i);
  });
  n.start();
  n.force_election();
  EXPECT_TRUE(n.is_leader());
  n.submit(kv::Command{kv::Op::kPut, 1, 1, 8, 0, 1});
  env.advance(msec(10));
  EXPECT_GE(n.commit_index(), 2);  // no-op + our entry
  EXPECT_EQ(applied.size(), 2u);
}

TEST(RaftUnitTest, LeaderStepsDownOnHigherTerm) {
  ScriptedEnv env;
  raft::RaftNode n(group_of(0, {0}), env, unit_options());
  n.start();
  n.force_election();
  EXPECT_TRUE(n.is_leader());
  n.on_packet(packet(1, 0, raft::Message{raft::AppendEntries{
                               99, 1, 0, 0, {}, 0}}));
  EXPECT_FALSE(n.is_leader());
  EXPECT_EQ(n.current_term(), 99);
}

// Commit rule: the quorum order statistic of {own durable index, peers'
// match indexes}, committed only at a current-term entry (§5.4.2).

/// Makes node 0 of {0..4} leader at term 1 and fills its log to index 10
/// (the leader's no-op, then nine puts). Diskless, so all of it is durable.
void lead_with_ten_entries(raft::RaftNode& n) {
  n.start();
  n.force_election();
  n.on_packet(packet(1, 0, raft::Message{raft::VoteReply{1, 1, true}}));
  n.on_packet(packet(2, 0, raft::Message{raft::VoteReply{1, 2, true}}));
  ASSERT_TRUE(n.is_leader());
  for (uint64_t k = 1; k <= 9; ++k) {
    n.submit(kv::Command{kv::Op::kPut, k, k, 8, 0, k});
  }
  ASSERT_EQ(n.last_index(), 10);
}

void ack(raft::RaftNode& n, consensus::Term term, NodeId peer,
         consensus::LogIndex match) {
  n.on_packet(packet(peer, n.id(),
                     raft::Message{raft::AppendReply{term, peer, true, match,
                                                     0}}));
}

TEST(RaftUnitTest, PriorTermEntriesCommitOnlyWithACurrentTermEntry) {
  ScriptedEnv env;
  raft::RaftNode n(group_of(0, {0, 1, 2}), env, unit_options());
  std::vector<consensus::LogIndex> applied;
  n.set_apply([&](consensus::LogIndex i, const kv::Command&) {
    applied.push_back(i);
  });
  n.start();
  // Leader 1 (term 1) replicates two entries here, but never commits them.
  raft::AppendEntries ae;
  ae.term = 1;
  ae.leader = 1;
  ae.prev_index = 0;
  ae.prev_term = 0;
  ae.entries = {raft::Entry{1, kv::Command{kv::Op::kPut, 1, 11, 8, 9, 1}},
                raft::Entry{1, kv::Command{kv::Op::kPut, 2, 22, 8, 9, 2}}};
  n.on_packet(packet(1, 0, raft::Message{ae}));
  ASSERT_EQ(n.last_index(), 2);
  // We win term 2; our no-op lands at index 3.
  n.force_election();
  n.on_packet(packet(2, 0, raft::Message{raft::VoteReply{2, 2, true}}));
  ASSERT_TRUE(n.is_leader());
  ASSERT_EQ(n.last_index(), 3);
  ASSERT_EQ(n.entry_at(3).term, 2);

  // Every replica holds the term-1 entries, yet counting replicas of an
  // old-term entry must not commit it.
  ack(n, 2, 1, 2);
  ack(n, 2, 2, 2);
  EXPECT_EQ(n.commit_index(), 0);
  EXPECT_TRUE(applied.empty());
  // Once the term-2 no-op reaches a majority, it commits the prefix with it.
  ack(n, 2, 2, 3);
  EXPECT_EQ(n.commit_index(), 3);
  EXPECT_EQ(applied, (std::vector<consensus::LogIndex>{1, 2, 3}));
}

TEST(RaftUnitTest, OutOfOrderAcksCommitTheMajorityMatch) {
  ScriptedEnv env;
  raft::RaftNode n(group_of(0, {0, 1, 2, 3, 4}), env, unit_options());
  lead_with_ten_entries(n);
  // Sorted, the durable indexes run {10 (self), 10, 7, 3, 3}: with three of
  // five needed, exactly 7 is committed — whatever order the acks take.
  ack(n, 1, 3, 3);
  EXPECT_EQ(n.commit_index(), 0);
  ack(n, 1, 1, 10);
  EXPECT_EQ(n.commit_index(), 3);
  ack(n, 1, 4, 3);
  EXPECT_EQ(n.commit_index(), 3);
  ack(n, 1, 2, 7);
  EXPECT_EQ(n.commit_index(), 7);
  ack(n, 1, 4, 2);  // a stale ack never lowers a match index
  EXPECT_EQ(n.commit_index(), 7);
}

TEST(RaftUnitTest, CommitQuorumIsTheKthLargestMatch) {
  // unsafe_commit_quorum = k commits the k-th largest of the five durable
  // indexes {10, 10, 7, 3, 3}; with k above the group size, nothing commits.
  for (const auto& [k, want] : std::vector<std::pair<int, consensus::LogIndex>>{
           {1, 10}, {2, 10}, {3, 7}, {4, 3}, {5, 3}, {6, 0}}) {
    ScriptedEnv env;
    raft::Options opt = unit_options();
    opt.unsafe_commit_quorum = k;
    raft::RaftNode n(group_of(0, {0, 1, 2, 3, 4}), env, opt);
    lead_with_ten_entries(n);
    ack(n, 1, 1, 10);
    ack(n, 1, 2, 7);
    ack(n, 1, 3, 3);
    ack(n, 1, 4, 3);
    EXPECT_EQ(n.commit_index(), want) << "k = " << k;
  }
}

// ---------------------------------------------------------------------------
// Cluster-level tests over the simulated network.
// ---------------------------------------------------------------------------

TEST(RaftClusterTest, ElectsPreferredLeader) {
  harness::Cluster cluster(test::lan_config(1));
  cluster.build_replicas(
      test::make_factory<raft::RaftNode>(test::fast_options<raft::Options>()));
  EXPECT_EQ(cluster.establish_leader(2), 2);
  EXPECT_TRUE(cluster.server(2).is_leader());
}

TEST(RaftClusterTest, SomeLeaderEmergesWithoutForcing) {
  harness::Cluster cluster(test::lan_config(2));
  cluster.build_replicas(
      test::make_factory<raft::RaftNode>(test::fast_options<raft::Options>()));
  cluster.run_for(sec(5));
  EXPECT_GE(cluster.leader_replica(), 0);
}

TEST(RaftClusterTest, ClientsCompleteOps) {
  harness::Cluster cluster(test::lan_config(3));
  cluster.build_replicas(
      test::make_factory<raft::RaftNode>(test::fast_options<raft::Options>()));
  ASSERT_EQ(cluster.establish_leader(0), 0);
  cluster.metrics().set_window(0, kTimeMax);
  cluster.add_clients(2, test::small_workload(), cluster.sim().now());
  cluster.run_for(sec(5));
  EXPECT_GT(cluster.metrics().completed(), 500);
}

TEST(RaftClusterTest, FollowerClientsAreForwarded) {
  harness::Cluster cluster(test::lan_config(4));
  cluster.build_replicas(
      test::make_factory<raft::RaftNode>(test::fast_options<raft::Options>()));
  ASSERT_EQ(cluster.establish_leader(0), 0);
  cluster.metrics().set_window(0, kTimeMax);
  // Clients exist at every site; sites 1..4 talk to follower replicas.
  cluster.add_clients(1, test::small_workload(), cluster.sim().now());
  cluster.run_for(sec(5));
  for (SiteId s = 1; s < 5; ++s) {
    EXPECT_GT(cluster.metrics().reads(s).count() +
                  cluster.metrics().writes(s).count(),
              0)
        << "site " << s;
  }
}

TEST(RaftClusterTest, ReplicasConvergeAfterQuiescence) {
  harness::Cluster cluster(test::lan_config(5));
  cluster.build_replicas(
      test::make_factory<raft::RaftNode>(test::fast_options<raft::Options>()));
  ASSERT_EQ(cluster.establish_leader(0), 0);
  cluster.add_clients(2, test::small_workload(), cluster.sim().now());
  cluster.run_for(sec(5));
  cluster.stop_clients();
  cluster.run_for(sec(2));
  EXPECT_TRUE(test::stores_converged(cluster));
  EXPECT_GT(cluster.server(0).store().applied_count(), 0u);
}

TEST(RaftClusterTest, FailoverPreservesAgreement) {
  auto record = std::make_shared<ApplyRecord>();
  harness::Cluster cluster(test::lan_config(6));
  cluster.build_replicas(test::make_factory<raft::RaftNode>(
      test::fast_options<raft::Options>(), record));
  ASSERT_EQ(cluster.establish_leader(0), 0);
  cluster.add_clients(2, test::small_workload(), cluster.sim().now());
  cluster.run_for(sec(2));
  // Kill the leader for 5 seconds; a new leader must take over.
  const Time crash_at = cluster.sim().now();
  cluster.net().faults().crash(cluster.server(0).id(), crash_at,
                               crash_at + sec(5));
  cluster.run_for(sec(3));
  const int new_leader = cluster.leader_replica();
  EXPECT_GE(new_leader, 1);
  const int64_t before = cluster.metrics().completed();
  cluster.metrics().set_window(0, kTimeMax);
  cluster.run_for(sec(4));  // old leader rejoins at crash_at + 5 s
  cluster.stop_clients();
  cluster.run_for(sec(3));
  EXPECT_GT(cluster.metrics().completed(), before);
  EXPECT_FALSE(record->violation);
  EXPECT_TRUE(test::stores_converged(cluster));
}

TEST(RaftClusterTest, MinorityPartitionDoesNotBlock) {
  harness::Cluster cluster(test::lan_config(7));
  cluster.build_replicas(
      test::make_factory<raft::RaftNode>(test::fast_options<raft::Options>()));
  ASSERT_EQ(cluster.establish_leader(0), 0);
  cluster.metrics().set_window(0, kTimeMax);
  cluster.add_clients(1, test::small_workload(), cluster.sim().now());
  // Isolate two followers (a minority).
  const Time t = cluster.sim().now();
  cluster.net().faults().isolate(cluster.server(3).id(), t, t + sec(4));
  cluster.net().faults().isolate(cluster.server(4).id(), t, t + sec(4));
  cluster.run_for(sec(4));
  EXPECT_GT(cluster.metrics().completed(), 100);
}

TEST(RaftClusterTest, MajorityCrashBlocksThenRecovers) {
  harness::Cluster cluster(test::lan_config(8));
  cluster.build_replicas(
      test::make_factory<raft::RaftNode>(test::fast_options<raft::Options>()));
  ASSERT_EQ(cluster.establish_leader(0), 0);
  cluster.metrics().set_window(0, kTimeMax);
  cluster.add_clients(1, test::small_workload(), cluster.sim().now());
  cluster.run_for(sec(1));
  const Time t = cluster.sim().now();
  for (int i = 2; i < 5; ++i) {
    cluster.net().faults().crash(cluster.server(i).id(), t, t + sec(4));
  }
  cluster.run_for(sec(3));
  const int64_t during = cluster.metrics().completed();
  cluster.run_for(msec(900));  // still inside the outage window
  // Commits require a majority: nothing (or nearly nothing in-flight)
  // completes deep into the outage.
  cluster.run_for(sec(1));  // nodes back at t+4s
  cluster.run_for(sec(4));
  EXPECT_GT(cluster.metrics().completed(), during + 100);
}

TEST(RaftClusterTest, WanReadsPayQuorumLatency) {
  // Baseline premise of Fig. 9a: Raft reads go through the log, so even
  // leader-site clients pay a WAN quorum round trip.
  harness::Cluster cluster(test::wan_config(9));
  cluster.build_replicas(
      test::make_factory<raft::RaftNode>(test::wan_options<raft::Options>()));
  ASSERT_EQ(cluster.establish_leader(0), 0);
  cluster.metrics().set_window(0, kTimeMax);
  kv::WorkloadConfig wl = test::small_workload();
  wl.read_fraction = 1.0;
  cluster.add_clients(1, wl, cluster.sim().now());
  cluster.run_for(sec(10));
  const Histogram reads = cluster.metrics().merged_reads({0});
  ASSERT_GT(reads.count(), 0);
  // Oregon leader's quorum RTT is ~65-69 ms; local reads would be ~1 ms.
  EXPECT_GT(reads.percentile(50), msec(30));
}

}  // namespace
}  // namespace praft
