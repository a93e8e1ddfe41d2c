#include <gtest/gtest.h>

#include <memory>

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
/// ShardedCluster (param true). Either way a raft group of three replicas
/// elects a leader and serves closed-loop clients before the test starts.
class ReplicaGroupLifecycleTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    kv::WorkloadConfig wl;
    wl.read_fraction = 0.5;
    if (GetParam()) {
      shard::ShardedClusterConfig cfg;
      cfg.num_groups = 2;
      cfg.num_machines = 3;
      cfg.replicas_per_group = 3;
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
      flat_->build_replicas("raft", durable_timing());
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
  const int64_t live_rollbacks =
      g.server(victim).node_iface().pipeline_rollbacks();

  g.restart(victim);
  EXPECT_TRUE(g.up(victim));
  EXPECT_EQ(g.restarts(), 1);
  // The implicit crash banked the old incarnation's counters...
  EXPECT_EQ(g.retired_pipeline_rollbacks(), live_rollbacks);
  // ...and the new one was rebuilt from the durable image, not started
  // fresh.
  EXPECT_TRUE(g.server(victim).recovery().recovered);
  run_for(msec(500));
  EXPECT_GE(g.leader(), 0);
}

TEST_P(ReplicaGroupLifecycleTest, SecondCrashIsANoOpAndBanksOnce) {
  harness::ReplicaGroup& g = *group_;
  // Message loss forces the leader's replication window to roll back, so
  // the counters being banked are not trivially zero.
  faults().set_drop_rate(0.2);
  run_for(sec(1));
  faults().set_drop_rate(0.0);
  const int leader = g.leader();
  ASSERT_GE(leader, 0);
  const consensus::NodeIface& node = g.server(leader).node_iface();
  const int64_t rollbacks = node.pipeline_rollbacks();
  const int64_t revocations = node.revocations_started();
  ASSERT_GT(rollbacks, 0);
  ASSERT_EQ(g.retired_pipeline_rollbacks(), 0);

  g.crash(leader);
  EXPECT_FALSE(g.up(leader));
  EXPECT_EQ(g.retired_pipeline_rollbacks(), rollbacks);
  EXPECT_EQ(g.retired_revocations(), revocations);

  g.crash(leader);
  EXPECT_FALSE(g.up(leader));
  EXPECT_EQ(g.retired_pipeline_rollbacks(), rollbacks);
  EXPECT_EQ(g.retired_revocations(), revocations);
  EXPECT_EQ(g.restarts(), 0);
}

INSTANTIATE_TEST_SUITE_P(Fronts, ReplicaGroupLifecycleTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "ShardedGroup" : "Cluster";
                         });

}  // namespace
}  // namespace praft
