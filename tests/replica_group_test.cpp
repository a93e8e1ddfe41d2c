#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "consensus/stats.h"
#include "consensus/timing.h"
#include "harness/cluster.h"
#include "harness/log_server.h"
#include "harness/replica_group.h"
#include "kv/workload.h"
#include "shard/sharded_cluster.h"

namespace praft {
namespace {

consensus::TimingOptions durable_timing() {
  consensus::TimingOptions t;
  t.election_timeout_min = msec(150);
  t.election_timeout_max = msec(300);
  t.heartbeat_interval = msec(40);
  t.batch_delay = msec(1);
  t.fsync_duration = msec(1);
  return t;
}

/// The ReplicaGroup lifecycle seen through both fronts that own one: a flat
/// Cluster's only group (param false) and group 1 of a two-group
/// ShardedCluster (param true). Either way a group of three replicas (raft
/// unless a subclass names another protocol) elects a leader and serves
/// closed-loop clients before the test starts.
class ReplicaGroupLifecycleTest : public ::testing::TestWithParam<bool> {
 protected:
  explicit ReplicaGroupLifecycleTest(std::string protocol = "raft")
      : protocol_(std::move(protocol)) {}

  void SetUp() override {
    kv::WorkloadConfig wl;
    wl.read_fraction = 0.5;
    if (GetParam()) {
      shard::ShardedClusterConfig cfg;
      cfg.num_groups = 2;
      cfg.num_machines = 3;
      cfg.replicas_per_group = 3;
      cfg.protocols = {protocol_};
      cfg.timing = durable_timing();
      cfg.latency = sim::LatencyMatrix(3, msec(1));
      cfg.seed = 11;
      sharded_ = std::make_unique<shard::ShardedCluster>(std::move(cfg));
      sharded_->build();
      ASSERT_EQ(sharded_->establish_leaders(), 2);
      sharded_->add_clients(2, wl, sharded_->sim().now());
      group_ = &sharded_->group(1);
    } else {
      harness::ClusterConfig cfg;
      cfg.num_replicas = 3;
      cfg.latency = sim::LatencyMatrix(3, msec(1));
      cfg.seed = 11;
      flat_ = std::make_unique<harness::Cluster>(std::move(cfg));
      flat_->build_replicas(protocol_, durable_timing());
      ASSERT_GE(flat_->establish_leader(0), 0);
      flat_->add_clients(2, wl, flat_->sim().now());
      group_ = &flat_->group();
    }
  }

  void run_for(Duration d) {
    if (sharded_) {
      sharded_->run_for(d);
    } else {
      flat_->run_for(d);
    }
  }
  sim::FaultPlan& faults() {
    return sharded_ ? sharded_->net().faults() : flat_->net().faults();
  }
  /// A member that is not the current leader.
  int follower() const { return (group_->leader() + 1) % group_->size(); }

  std::string protocol_;
  std::unique_ptr<harness::Cluster> flat_;
  std::unique_ptr<shard::ShardedCluster> sharded_;
  harness::ReplicaGroup* group_ = nullptr;
};

TEST_P(ReplicaGroupLifecycleTest, ProbeInstalledBeforeCrashFiresAfterRestart) {
  harness::ReplicaGroup& g = *group_;
  const int victim = follower();
  const NodeId id = g.id(victim);
  int64_t applies = 0;
  int restarts_seen = 0;
  g.install_apply_probe(
      [&applies, id](NodeId r, consensus::LogIndex, const kv::Command&) {
        if (r == id) ++applies;
      });
  g.set_restart_probe([&restarts_seen, id](NodeId r,
                                           const consensus::HardState&,
                                           const storage::RecoveryStats& st,
                                           consensus::LogIndex) {
    EXPECT_EQ(r, id);
    EXPECT_TRUE(st.recovered);
    ++restarts_seen;
  });
  run_for(msec(500));
  ASSERT_GT(applies, 0);

  g.crash(victim);
  run_for(msec(500));
  const int64_t before_restart = applies;  // nothing applies while down
  g.restart(victim);
  run_for(sec(1));
  EXPECT_EQ(restarts_seen, 1);
  EXPECT_EQ(g.restarts(), 1);
  // Probes were installed once, on the first incarnation; the rebuilt one
  // reports its catch-up and new applies through the same probe.
  EXPECT_GT(applies, before_restart);
}

TEST_P(ReplicaGroupLifecycleTest, RestartingAnUpReplicaCrashesItFirst) {
  harness::ReplicaGroup& g = *group_;
  const int victim = follower();
  run_for(msec(500));
  ASSERT_TRUE(g.up(victim));
  const consensus::Stats before = g.stats();

  g.restart(victim);
  EXPECT_TRUE(g.up(victim));
  EXPECT_EQ(g.restarts(), 1);
  // The implicit crash left the group's counts as they were...
  EXPECT_TRUE(g.stats() == before);
  // ...and the new incarnation was rebuilt from the durable image, not
  // started fresh.
  EXPECT_TRUE(g.server(victim).recovery().recovered);
  run_for(msec(500));
  EXPECT_GE(g.leader(), 0);
}

TEST_P(ReplicaGroupLifecycleTest, CrashesKeepTheCountsAndARestartAddsToThem) {
  harness::ReplicaGroup& g = *group_;
  // Message loss forces the leader's replication window to roll back, so
  // the counts a crash must keep are not trivially zero.
  faults().set_drop_rate(0.2);
  run_for(sec(1));
  faults().set_drop_rate(0.0);
  const int leader = g.leader();
  ASSERT_GE(leader, 0);
  const int64_t own = g.server(leader).node_iface().stats().pipeline_rollbacks;
  ASSERT_GT(own, 0);
  const consensus::Stats before = g.stats();

  g.crash(leader);
  EXPECT_FALSE(g.up(leader));
  EXPECT_TRUE(g.stats() == before);
  EXPECT_EQ(g.down_stats().pipeline_rollbacks, own);

  g.crash(leader);
  EXPECT_FALSE(g.up(leader));
  EXPECT_TRUE(g.stats() == before);
  EXPECT_EQ(g.restarts(), 0);

  // The rebuilt node counts on from its predecessor's block: once it leads
  // again, loss rolls its window back past what the old incarnation did.
  g.restart(leader);
  EXPECT_EQ(g.server(leader).node_iface().stats().pipeline_rollbacks, own);
  run_for(sec(1));
  g.server(leader).trigger_election();
  run_for(sec(1));
  ASSERT_EQ(g.leader(), leader);
  faults().set_drop_rate(0.2);
  run_for(sec(3));
  EXPECT_GT(g.server(leader).node_iface().stats().pipeline_rollbacks, own);
  EXPECT_TRUE(g.down_stats() == consensus::Stats{});
}

std::string front_name(const ::testing::TestParamInfo<bool>& info) {
  return info.param ? "ShardedGroup" : "Cluster";
}

INSTANTIATE_TEST_SUITE_P(Fronts, ReplicaGroupLifecycleTest, ::testing::Bool(),
                         front_name);

/// The same fronts running Mencius: a crashed member's colleagues revoke
/// its slots, so both counters praft_bench reports move.
class MenciusLifecycleTest : public ReplicaGroupLifecycleTest {
 protected:
  MenciusLifecycleTest() : ReplicaGroupLifecycleTest("mencius") {}

  /// Every group of the deployment, in group order.
  std::vector<const harness::ReplicaGroup*> groups() const {
    if (!sharded_) return {&flat_->group()};
    std::vector<const harness::ReplicaGroup*> out;
    for (int g = 0; g < sharded_->num_groups(); ++g) {
      out.push_back(&sharded_->group(g));
    }
    return out;
  }

  /// praft_bench's formula for its two consensus counters must add up to
  /// the groups' stats(): the cluster's retired_*() plus every live
  /// replica's own NodeIface counts.
  void expect_bench_formula_holds() {
    int64_t rollbacks = sharded_ ? sharded_->retired_pipeline_rollbacks()
                                 : flat_->retired_pipeline_rollbacks();
    int64_t revocations = sharded_ ? sharded_->retired_revocations()
                                   : flat_->retired_revocations();
    consensus::Stats want;
    for (const harness::ReplicaGroup* g : groups()) {
      want += g->stats();
      for (int j = 0; j < g->size(); ++j) {
        if (!g->up(j)) continue;
        rollbacks += g->server(j).node_iface().pipeline_rollbacks();
        revocations += g->server(j).node_iface().revocations_started();
      }
    }
    EXPECT_EQ(rollbacks, want.pipeline_rollbacks);
    EXPECT_EQ(revocations, want.revocations_started);
  }
};

TEST_P(MenciusLifecycleTest, BenchFormulaCountsEachIncarnationOnce) {
  harness::ReplicaGroup& g = *group_;
  g.crash(1);
  // Past the revoke timeout the others revoke the silent member's slots,
  // and their windows toward it roll back.
  run_for(sec(4));
  ASSERT_GT(g.stats().pipeline_rollbacks, 0);
  ASSERT_GT(g.stats().revocations_started, 0);
  expect_bench_formula_holds();

  g.restart(1);
  run_for(sec(1));
  expect_bench_formula_holds();
}

INSTANTIATE_TEST_SUITE_P(Fronts, MenciusLifecycleTest, ::testing::Bool(),
                         front_name);

}  // namespace
}  // namespace praft
