#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "chaos/invariants.h"
#include "consensus/timing.h"
#include "harness/cluster.h"
#include "kv/workload.h"
#include "shard/experiment.h"
#include "shard/router.h"
#include "shard/shard_invariants.h"
#include "shard/shard_map.h"

namespace praft {
namespace {

consensus::TimingOptions fast_timing() {
  consensus::TimingOptions t;
  t.election_timeout_min = msec(150);
  t.election_timeout_max = msec(300);
  t.heartbeat_interval = msec(40);
  t.batch_delay = msec(1);
  return t;
}

/// `groups` raft groups of `replicas` members over `machines` machines.
harness::ClusterConfig small_config(int groups, int machines, int replicas) {
  harness::ClusterConfig cfg;
  cfg.num_groups = groups;
  cfg.num_machines = machines;
  cfg.num_replicas = replicas;
  cfg.latency = sim::LatencyMatrix(machines, msec(1));
  cfg.costs.enabled = false;
  cfg.seed = 7;
  return cfg;
}

TEST(ShardMapTest, DeterministicAcrossInstances) {
  shard::ShardMap a(8), b(8);
  for (uint64_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(a.owner_of(k), b.owner_of(k));
    EXPECT_GE(a.owner_of(k), 0);
    EXPECT_LT(a.owner_of(k), 8);
  }
}

TEST(ShardMapTest, BalancesKeysWithinTwoX) {
  // 10k sequential keys (the workload's key shape) must spread evenly:
  // max/min group load within 2x, no empty group.
  for (int groups : {2, 4, 8, 16}) {
    shard::ShardMap map(groups);
    std::vector<int> load(static_cast<size_t>(groups), 0);
    for (uint64_t k = 1; k <= 10'000; ++k) {
      ++load[static_cast<size_t>(map.owner_of(k))];
    }
    int lo = load[0], hi = load[0];
    for (int l : load) {
      lo = std::min(lo, l);
      hi = std::max(hi, l);
    }
    EXPECT_GT(lo, 0) << groups << " groups";
    EXPECT_LE(hi, 2 * lo) << groups << " groups: max " << hi << " min " << lo;
  }
}

TEST(ShardRouterTest, RoutesEveryKeyToOwningGroupTarget) {
  shard::ShardMap map(4);
  shard::ShardRouter router(map);
  for (int g = 0; g < 4; ++g) {
    router.set_target(g, static_cast<NodeId>(100 + g));
  }
  for (uint64_t k = 0; k < 5000; ++k) {
    const int owner = map.owner_of(k);
    EXPECT_EQ(router.group_of(k), owner);
    EXPECT_EQ(router.target_of(k), static_cast<NodeId>(100 + owner));
  }
}

TEST(MultiGroupClusterTest, SpreadPlacementLandsLeadersOnDistinctMachines) {
  auto cfg = small_config(4, 5, 5);
  harness::Cluster cluster(std::move(cfg));
  cluster.build_replicas("raft", fast_timing());
  ASSERT_EQ(cluster.establish_leaders(), 4);
  std::set<int> leader_machines;
  for (int g = 0; g < 4; ++g) {
    // Under spread placement the preferred leader (member 0) wins its
    // group's first election, and consecutive groups' leaders land on
    // consecutive machines.
    EXPECT_EQ(cluster.leader_of(g), 0) << "group " << g;
    EXPECT_EQ(cluster.member_machine(g, 0), g % 5);
    leader_machines.insert(cluster.member_machine(g, 0));
  }
  EXPECT_EQ(leader_machines.size(), 4u);  // all distinct while N <= M
}

TEST(MultiGroupClusterTest, CoLocatedPlacementPilesLeadersOnMachineZero) {
  auto cfg = small_config(4, 5, 5);
  cfg.spread_leaders = false;
  harness::Cluster cluster(std::move(cfg));
  cluster.build_replicas("raft", fast_timing());
  for (int g = 0; g < 4; ++g) {
    EXPECT_EQ(cluster.member_machine(g, 0), 0);
  }
}

TEST(MultiGroupClusterTest, EveryOpLandsInItsOwningGroup) {
  // End-to-end routing property: run a real sharded workload and let the
  // cross-group checker watch every apply on every replica of every group.
  auto cfg = small_config(3, 5, 5);
  harness::Cluster cluster(std::move(cfg));
  cluster.build_replicas("raft", fast_timing());

  shard::CrossGroupChecker xchk(shard::ShardMap(3));
  std::vector<int64_t> group_applies(3, 0);
  for (int g = 0; g < 3; ++g) {
    cluster.install_apply_probe(
        g, [&xchk, &group_applies, g](NodeId r, consensus::LogIndex i,
                                      const kv::Command& c) {
          xchk.on_apply(g, r, i, c);
          if (!c.is_noop()) ++group_applies[static_cast<size_t>(g)];
        });
  }
  ASSERT_EQ(cluster.establish_leaders(), 3);

  kv::WorkloadConfig wl;
  wl.read_fraction = 0.5;
  cluster.add_clients(4, wl, cluster.sim().now());
  cluster.run_for(sec(3));
  cluster.stop_clients();
  cluster.run_for(sec(1));

  EXPECT_TRUE(xchk.ok()) << (xchk.violations().empty()
                                 ? ""
                                 : xchk.violations().front());
  for (int g = 0; g < 3; ++g) {
    // The hash map spreads every machine's key partition over all groups,
    // so each group must have seen real traffic.
    EXPECT_GT(group_applies[static_cast<size_t>(g)], 0) << "group " << g;
  }
}

TEST(MultiGroupClusterTest, GroupFaultsAreInvisibleToOtherGroups) {
  // Machine 0 hosts ONLY group 0 here (4 machines, 3-way groups, stride 1:
  // group 0 -> {0,1,2}, group 1 -> {1,2,3}), so a machine-0 crash is a
  // group-0-only fault. Group 1's checker must see a clean, restart-free
  // run while group 0 absorbs a real crash-restart.
  consensus::TimingOptions timing = fast_timing();
  timing.fsync_duration = msec(1);
  harness::Cluster cluster(small_config(2, 4, 3));
  cluster.build_replicas("raft", timing);
  ASSERT_EQ(cluster.member_machine(0, 0), 0);
  for (int j = 0; j < 3; ++j) {
    ASSERT_NE(cluster.member_machine(1, j), 0);
  }

  chaos::InvariantChecker chk0, chk1;
  chk0.attach(cluster.group(0));
  chk1.attach(cluster.group(1));
  ASSERT_EQ(cluster.establish_leaders(), 2);

  kv::WorkloadConfig wl;
  cluster.add_clients(3, wl, cluster.sim().now());
  cluster.run_for(sec(1));
  cluster.sim().at(cluster.sim().now() + msec(500),
                   [&cluster] { cluster.crash_machine(0); });
  cluster.sim().at(cluster.sim().now() + sec(2),
                   [&cluster] { cluster.restart_machine(0); });
  cluster.run_for(sec(4));
  cluster.stop_clients();
  cluster.run_for(sec(5));

  chk0.finalize(cluster.group(0));
  chk1.finalize(cluster.group(1));
  EXPECT_TRUE(chk0.ok()) << (chk0.violations().empty()
                                 ? ""
                                 : chk0.violations().front());
  EXPECT_TRUE(chk1.ok()) << (chk1.violations().empty()
                                 ? ""
                                 : chk1.violations().front());
  EXPECT_EQ(chk0.restarts(), 1u);  // group 0 lived through the crash
  EXPECT_EQ(chk1.restarts(), 0u);  // group 1 never noticed
  EXPECT_EQ(cluster.restarts(), 1);
}

}  // namespace
}  // namespace praft
