#include <gtest/gtest.h>

#include "lease/manager.h"
#include "pql/leader_lease.h"
#include "pql/raftstar_pql.h"
#include "scripted_env.h"
#include "test_util.h"

namespace praft {
namespace {

using test::OneShotClient;

// ---------------------------------------------------------------------------
// LeaseManager unit tests.
// ---------------------------------------------------------------------------

consensus::Group group_of(NodeId self, std::initializer_list<NodeId> members) {
  consensus::Group g;
  g.self = self;
  g.members = members;
  return g;
}

TEST(LeaseManagerTest, SelfLeaseAlwaysValid) {
  test::ScriptedEnv env;
  lease::LeaseManager lm(group_of(0, {0, 1, 2}), env);
  EXPECT_EQ(lm.valid_leases(0), 1);
  EXPECT_FALSE(lm.quorum_lease_active(0));
}

TEST(LeaseManagerTest, QuorumLeaseFromGrants) {
  test::ScriptedEnv env;
  lease::LeaseManager lm(group_of(0, {0, 1, 2}), env);
  lm.on_grant(lease::Grant{1, 0, sec(2)});
  EXPECT_TRUE(lm.quorum_lease_active(sec(1)));   // self + node 1 = 2 >= f+1
  EXPECT_FALSE(lm.quorum_lease_active(sec(3)));  // expired
}

TEST(LeaseManagerTest, GrantRoundRenewsAndReportsHolders) {
  test::ScriptedEnv env;
  lease::LeaseManager lm(group_of(0, {0, 1, 2}), env);
  lm.start();
  EXPECT_EQ(env.outbox.size(), 2u);  // grants to peers 1 and 2
  auto holders = lm.granted_holders(msec(100));
  EXPECT_EQ(holders.size(), 2u);
  // Renewal happens on the interval timer.
  env.clear();
  env.advance(msec(600));
  EXPECT_GE(env.outbox.size(), 2u);
}

TEST(LeaseManagerTest, SilentHolderDropsOut) {
  test::ScriptedEnv env;
  lease::Options opt;
  opt.duration = msec(500);
  opt.renew_interval = msec(100);
  lease::LeaseManager lm(group_of(0, {0, 1, 2}), env, opt);
  lm.start();
  // Node 1 acks once; node 2 never acks.
  lm.on_grant_ack(lease::GrantAck{1, 0}, 1);
  env.advance(sec(2));
  lm.on_grant_ack(lease::GrantAck{1, 0}, 1);
  env.advance(msec(100));
  auto holders = lm.granted_holders(env.now());
  ASSERT_EQ(holders.size(), 1u);  // only the responsive node keeps its lease
  EXPECT_EQ(holders[0], 1);
}

TEST(LeaseManagerTest, PartialGrantSet) {
  test::ScriptedEnv env;
  lease::Options opt;
  opt.grant_to = {2};
  lease::LeaseManager lm(group_of(0, {0, 1, 2}), env, opt);
  lm.start();
  ASSERT_EQ(env.outbox.size(), 1u);
  EXPECT_EQ(env.outbox[0].to, 2);
}

// ---------------------------------------------------------------------------
// Raft*-PQL cluster behaviour (the Fig. 9 mechanisms).
// ---------------------------------------------------------------------------

harness::Cluster::ServerFactory pql_factory(
    raftstar::Options opt, pql::PqlOptions popt = {},
    bool model_cpu = false) {
  return [opt, popt, model_cpu](harness::NodeHost& host,
                                const consensus::Group& g) {
    const harness::CostModel costs =
        model_cpu ? harness::CostModel{} : test::zero_costs();
    return std::make_unique<pql::RaftStarPqlServer>(host, g, costs, opt, popt);
  };
}

raftstar::Options wan_rs_options() {
  return test::wan_options<raftstar::Options>();
}

TEST(PqlClusterTest, FollowerReadsAreLocal) {
  harness::Cluster cluster(test::wan_config(31));
  cluster.build_replicas(pql_factory(wan_rs_options()));
  ASSERT_EQ(cluster.establish_leader(0), 0);
  cluster.run_for(sec(2));  // leases propagate
  cluster.metrics().set_window(0, kTimeMax);
  kv::WorkloadConfig wl;
  wl.read_fraction = 1.0;
  wl.conflict_rate = 0.0;
  cluster.add_clients(1, wl, cluster.sim().now());
  cluster.run_for(sec(10));
  // Reads at follower sites must be served locally: ~0.5 ms RTT, far below
  // any WAN quorum round trip.
  for (SiteId s = 1; s < 5; ++s) {
    const Histogram& h = cluster.metrics().reads(s);
    ASSERT_GT(h.count(), 0) << "site " << s;
    EXPECT_LT(h.percentile(50), msec(10)) << "site " << s;
  }
}

TEST(PqlClusterTest, FollowerBillsAClientRequestWithItsBytes) {
  // Any PQL replica may serve a request locally, so each bills it as a full
  // client request; like every other request, a 4 KB put also pays for its
  // bytes.
  harness::Cluster cluster(test::wan_config(35));
  cluster.build_replicas(pql_factory(wan_rs_options(), {}, /*model_cpu=*/true));
  ASSERT_EQ(cluster.establish_leader(0), 0);
  const harness::ClientRequest req{
      kv::Command{kv::Op::kPut, 7, 1, 4096, 99, 1}};
  const net::Packet p = test::packet(99, cluster.replica_id(1),
                                     harness::wire_size(req),
                                     harness::Message{req});
  const harness::CostModel c;
  ASSERT_FALSE(cluster.server(1).is_leader());
  ASSERT_GT(c.size_cost(p.bytes), 0);
  EXPECT_EQ(cluster.server(1).cost_of(p),
            c.client_request + c.size_cost(p.bytes));
}

TEST(PqlClusterTest, WritesWaitForAllLeaseHolders) {
  // Fig. 9b: PQL write latency exceeds plain Raft*'s because commit waits
  // for every lease holder, not just the fastest majority.
  harness::Cluster plain(test::wan_config(32));
  plain.build_replicas(test::make_factory<raftstar::RaftStarNode>(
      wan_rs_options()));
  ASSERT_EQ(plain.establish_leader(0), 0);
  plain.metrics().set_window(0, kTimeMax);
  kv::WorkloadConfig wl;
  wl.read_fraction = 0.0;
  wl.conflict_rate = 0.0;
  plain.add_clients(1, wl, plain.sim().now());
  plain.run_for(sec(10));
  const int64_t plain_p50 = plain.metrics().writes(0).percentile(50);

  harness::Cluster pql(test::wan_config(32));
  pql.build_replicas(pql_factory(wan_rs_options()));
  ASSERT_EQ(pql.establish_leader(0), 0);
  pql.run_for(sec(2));
  pql.metrics().set_window(0, kTimeMax);
  pql.add_clients(1, wl, pql.sim().now());
  pql.run_for(sec(10));
  const int64_t pql_p50 = pql.metrics().writes(0).percentile(50);

  // Plain Raft* commits at the nearest quorum (~Ohio/Canada RTT ≈ 69 ms);
  // PQL waits for Ireland/Seoul too (RTT ≥ 126 ms).
  EXPECT_GT(plain_p50, msec(30));
  EXPECT_GT(pql_p50, plain_p50 + msec(30));
}

TEST(PqlClusterTest, ConflictingReadWaitsForCommit) {
  harness::Cluster cluster(test::wan_config(33));
  cluster.build_replicas(pql_factory(wan_rs_options()));
  ASSERT_EQ(cluster.establish_leader(0), 0);
  cluster.run_for(sec(2));
  // A write to key 7 is in flight to Seoul's log; Seoul must not serve a
  // local read of key 7 until that write commits.
  auto& wclient = cluster.make_host(0);
  OneShotClient writer(wclient);
  auto& rclient = cluster.make_host(4);
  OneShotClient reader(rclient);
  writer.send(cluster.server(0).id(), kv::Command{kv::Op::kPut, 7, 99, 8, 0, 0});
  cluster.run_for(sec(2));
  ASSERT_FALSE(writer.waiting());
  reader.send(cluster.server(4).id(), kv::Command{kv::Op::kGet, 7, 0, 8, 0, 0});
  cluster.run_for(sec(2));
  ASSERT_FALSE(reader.waiting());
  EXPECT_EQ(reader.value(), 99u);
}

TEST(PqlClusterTest, LeaseLossFallsBackToLogReads) {
  harness::Cluster cluster(test::wan_config(34));
  std::vector<pql::RaftStarPqlServer*> servers;
  auto factory = [&servers](harness::NodeHost& host,
                            const consensus::Group& g)
      -> std::unique_ptr<harness::LogServer> {
    const harness::CostModel costs = test::zero_costs();
    auto s = std::make_unique<pql::RaftStarPqlServer>(host, g, costs,
                                                      wan_rs_options());
    servers.push_back(s.get());
    return s;
  };
  cluster.build_replicas(factory);
  ASSERT_EQ(cluster.establish_leader(0), 0);
  cluster.run_for(sec(2));
  // Stop four replicas from granting: every holder loses its quorum lease
  // (it can hold at most self + 1 < 3 valid leases).
  for (int i = 0; i < 4; ++i) servers[static_cast<size_t>(i)]->leases().stop_granting();
  cluster.run_for(sec(3));  // leases expire
  cluster.metrics().set_window(0, kTimeMax);
  kv::WorkloadConfig wl;
  wl.read_fraction = 1.0;
  cluster.add_clients(1, wl, cluster.sim().now());
  cluster.run_for(sec(8));
  // Reads still complete, but through the log: WAN latency at followers.
  const Histogram reads = cluster.metrics().merged_reads({1, 2, 3, 4});
  ASSERT_GT(reads.count(), 0);
  EXPECT_GT(reads.percentile(50), msec(30));
}

TEST(PqlClusterTest, CrashedHolderStallsWritesOnlyUntilExpiry) {
  harness::Cluster cluster(test::wan_config(35));
  cluster.build_replicas(pql_factory(wan_rs_options()));
  ASSERT_EQ(cluster.establish_leader(0), 0);
  cluster.run_for(sec(2));
  cluster.metrics().set_window(0, kTimeMax);
  kv::WorkloadConfig wl;
  wl.read_fraction = 0.0;
  cluster.add_clients(1, wl, cluster.sim().now());
  cluster.run_for(sec(2));
  const Time t = cluster.sim().now();
  cluster.net().faults().crash(cluster.server(4).id(), t, t + sec(60));
  cluster.run_for(sec(10));
  const int64_t after_crash = cluster.metrics().completed();
  cluster.run_for(sec(5));
  // Writes resumed once the dead holder's leases lapsed (~2.5 s).
  EXPECT_GT(cluster.metrics().completed(), after_crash + 5);
}

// ---------------------------------------------------------------------------
// Ablation A1 — the §A.2 hand-port bug: forgetting the leader's own grants.
// ---------------------------------------------------------------------------

class PqlAblationTest : public ::testing::TestWithParam<bool> {};

TEST_P(PqlAblationTest, LeaderGrantsDecideReadFreshness) {
  const bool include_leader_grants = GetParam();
  // Lease topology where ONLY the leader's grant set forces waiting for
  // Seoul: Oregon (leader), Ireland and Seoul grant to Seoul; Ohio/Canada —
  // the fast quorum — grant nothing, so their appendOK piggybacks are empty.
  pql::PqlOptions popt;
  popt.include_leader_grants = include_leader_grants;
  harness::Cluster cluster(test::wan_config(36));
  const NodeId seoul_id = 4;  // replica ids equal 0..4 by construction
  auto factory = [popt, seoul_id](harness::NodeHost& host,
                                  const consensus::Group& g)
      -> std::unique_ptr<harness::LogServer> {
    const harness::CostModel costs = test::zero_costs();
    pql::PqlOptions p = popt;
    const bool grants_to_seoul =
        g.self == 0 || g.self == 2 || g.self == seoul_id;
    p.lease.grant_to = grants_to_seoul ? std::vector<NodeId>{seoul_id}
                                       : std::vector<NodeId>{kNoNode};
    return std::make_unique<pql::RaftStarPqlServer>(
        host, g, costs, test::wan_options<raftstar::Options>(), p);
  };
  cluster.build_replicas(factory);
  ASSERT_EQ(cluster.establish_leader(0), 0);
  cluster.run_for(sec(2));  // Seoul now holds a quorum lease (ORE+IRE+self)

  // Cut the leader->Seoul link so the write's append cannot reach Seoul.
  const Time t = cluster.sim().now();
  cluster.net().faults().partition_pair(0, seoul_id, t, t + sec(1));

  auto& whost = cluster.make_host(0);
  OneShotClient writer(whost);
  writer.send(cluster.server(0).id(), kv::Command{kv::Op::kPut, 7, 55, 8, 0, 0});
  cluster.run_for(msec(400));  // quorum {ORE,OHI,CAN} acked long ago

  auto& rhost = cluster.make_host(4);
  OneShotClient reader(rhost);
  reader.send(cluster.server(4).id(), kv::Command{kv::Op::kGet, 7, 0, 8, 0, 0});
  cluster.run_for(msec(200));

  if (include_leader_grants) {
    // Correct port: the write is still blocked on Seoul's appendOK, so the
    // value is not yet committed — and Seoul's local read (whatever it
    // returns) cannot observe a committed-then-lost value. The write must
    // still be pending.
    EXPECT_TRUE(writer.waiting());
    cluster.run_for(sec(3));  // partition heals; everything completes
    EXPECT_FALSE(writer.waiting());
  } else {
    // Buggy port: the write "committed" without Seoul, yet Seoul holds a
    // quorum lease and serves a stale local read — a linearizability
    // violation a client can observe.
    EXPECT_FALSE(writer.waiting());
    ASSERT_FALSE(reader.waiting());
    EXPECT_EQ(reader.value(), 0u) << "stale read proves the hand-port bug";
  }
}

INSTANTIATE_TEST_SUITE_P(BothPorts, PqlAblationTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "automated_port_correct"
                                             : "handworked_port_buggy";
                         });

// ---------------------------------------------------------------------------
// Leader Lease baseline.
// ---------------------------------------------------------------------------

TEST(LeaderLeaseTest, OnlyLeaderReadsLocally) {
  harness::Cluster cluster(test::wan_config(37));
  auto factory = [](harness::NodeHost& host, const consensus::Group& g)
      -> std::unique_ptr<harness::LogServer> {
    const harness::CostModel costs = test::zero_costs();
    return std::make_unique<pql::LeaderLeaseServer>(
        host, g, costs, test::wan_options<raftstar::Options>());
  };
  cluster.build_replicas(factory);
  ASSERT_EQ(cluster.establish_leader(0), 0);
  cluster.run_for(sec(2));
  cluster.metrics().set_window(0, kTimeMax);
  kv::WorkloadConfig wl;
  wl.read_fraction = 1.0;
  wl.conflict_rate = 0.0;
  cluster.add_clients(1, wl, cluster.sim().now());
  cluster.run_for(sec(10));
  // Leader site: ~local. Follower sites: one WAN hop to the leader & back.
  EXPECT_LT(cluster.metrics().reads(0).percentile(50), msec(10));
  const Histogram follower = cluster.metrics().merged_reads({1, 2, 3, 4});
  ASSERT_GT(follower.count(), 0);
  EXPECT_GT(follower.percentile(50), msec(20));
}

}  // namespace
}  // namespace praft
