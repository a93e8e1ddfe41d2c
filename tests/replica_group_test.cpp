#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "consensus/stats.h"
#include "consensus/timing.h"
#include "consensus/trace.h"
#include "harness/cluster.h"
#include "harness/log_server.h"
#include "harness/replica_group.h"
#include "kv/workload.h"
#include "storage/wal.h"

namespace praft {
namespace {

consensus::TimingOptions durable_timing(size_t log_cap = 0) {
  consensus::TimingOptions t;
  t.election_timeout_min = msec(150);
  t.election_timeout_max = msec(300);
  t.heartbeat_interval = msec(40);
  t.batch_delay = msec(1);
  t.fsync_duration = msec(1);
  t.compaction_log_cap = log_cap;
  return t;
}

/// Records every consensus::Trace event as (kind, replica), in order.
class RecordingTrace final : public consensus::Trace {
 public:
  enum class Kind { kWatermark, kSnapshot, kSentState, kRestart };
  struct Event {
    Kind kind;
    NodeId replica;
  };

  void on_watermark(NodeId r, consensus::LogIndex,
                    consensus::LogIndex) override {
    events.push_back({Kind::kWatermark, r});
  }
  void on_snapshot_install(NodeId r, consensus::LogIndex, uint64_t) override {
    events.push_back({Kind::kSnapshot, r});
  }
  void on_sent_state(NodeId r, const consensus::HardState&) override {
    events.push_back({Kind::kSentState, r});
  }
  void on_restart(NodeId r, const consensus::HardState&,
                  const storage::RecoveryStats& stats,
                  consensus::LogIndex) override {
    events.push_back({Kind::kRestart, r});
    last_recovery = stats;
  }

  /// Events of `kind` from `replica` recorded at or after position `from`.
  [[nodiscard]] int count(Kind kind, NodeId replica, size_t from = 0) const {
    int n = 0;
    for (size_t i = from; i < events.size(); ++i) {
      if (events[i].kind == kind && events[i].replica == replica) ++n;
    }
    return n;
  }

  std::vector<Event> events;
  storage::RecoveryStats last_recovery;
};

/// The ReplicaGroup lifecycle seen from two places in a Cluster: the only
/// group of a flat one (param false) and group 1 of a two-group one (param
/// true), each over three machines. Either way a group of three replicas
/// (raft unless a subclass names another protocol) elects a leader and
/// serves closed-loop clients before the test starts.
class ReplicaGroupLifecycleTest : public ::testing::TestWithParam<bool> {
 protected:
  explicit ReplicaGroupLifecycleTest(std::string protocol = "raft",
                                     size_t log_cap = 0)
      : protocol_(std::move(protocol)), timing_(durable_timing(log_cap)) {}

  void SetUp() override {
    harness::ClusterConfig cfg;
    cfg.num_replicas = 3;
    cfg.num_groups = GetParam() ? 2 : 1;
    cfg.latency = sim::LatencyMatrix(3, msec(1));
    cfg.seed = 11;
    cluster_ = std::make_unique<harness::Cluster>(std::move(cfg));
    cluster_->build_replicas(protocol_, timing_);
    if (GetParam()) {
      ASSERT_EQ(cluster_->establish_leaders(), 2);
    } else {
      ASSERT_GE(cluster_->establish_leader(0), 0);
    }
    kv::WorkloadConfig wl;
    wl.read_fraction = 0.5;
    cluster_->add_clients(2, wl, cluster_->sim().now());
    group_ = &cluster_->group(cluster_->num_groups() - 1);
  }

  void run_for(Duration d) { cluster_->run_for(d); }
  sim::FaultPlan& faults() { return cluster_->net().faults(); }
  /// A member that is not the current leader.
  int follower() const { return (group_->leader() + 1) % group_->size(); }

  std::string protocol_;
  consensus::TimingOptions timing_;
  std::unique_ptr<harness::Cluster> cluster_;
  harness::ReplicaGroup* group_ = nullptr;
};

TEST_P(ReplicaGroupLifecycleTest, ProbeInstalledBeforeCrashFiresAfterRestart) {
  using Kind = RecordingTrace::Kind;
  harness::ReplicaGroup& g = *group_;
  const int victim = follower();
  const NodeId id = g.id(victim);
  int64_t applies = 0;
  RecordingTrace trace;
  g.install_apply_probe(
      [&applies, id](NodeId r, consensus::LogIndex, const kv::Command&) {
        if (r == id) ++applies;
      });
  g.set_trace(&trace);
  run_for(msec(500));
  ASSERT_GT(applies, 0);
  ASSERT_GT(trace.count(Kind::kWatermark, id), 0);

  g.crash(victim);
  run_for(msec(500));
  const int64_t before_restart = applies;  // nothing applies while down
  const size_t restarted_at = trace.events.size();
  g.restart(victim);
  run_for(sec(1));
  EXPECT_EQ(trace.count(Kind::kRestart, id), 1);
  EXPECT_TRUE(trace.last_recovery.recovered);
  EXPECT_EQ(g.restarts(), 1);
  // The apply probe and the trace were installed once, on the first
  // incarnation; the rebuilt one reports its catch-up, its watermarks and
  // the hard state its replies depended on through the same two.
  EXPECT_GT(applies, before_restart);
  EXPECT_GT(trace.count(Kind::kWatermark, id, restarted_at), 0);
  EXPECT_GT(trace.count(Kind::kSentState, id, restarted_at), 0);
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

TEST_P(ReplicaGroupLifecycleTest, RestartedTwiceRecoversFromTheSameHostStore) {
  harness::ReplicaGroup& g = *group_;
  const int victim = follower();
  storage::DurableStore* disk = &g.store(victim);
  consensus::LogIndex last_tail = -1;
  for (int round = 0; round < 2; ++round) {
    run_for(msec(500));
    g.crash(victim);
    g.restart(victim);
    // The rebuilt node talks through the same host, so it recovers from
    // the store its predecessors wrote, which the crash left in place.
    EXPECT_EQ(&g.store(victim), disk);
    EXPECT_EQ(g.server(victim).host().store(), disk);
    const storage::RecoveryStats& rec = g.server(victim).recovery();
    ASSERT_TRUE(rec.recovered);
    EXPECT_GT(rec.wal_tail, last_tail);
    last_tail = rec.wal_tail;
  }
  EXPECT_EQ(g.restarts(), 2);
}

std::string front_name(const ::testing::TestParamInfo<bool>& info) {
  return info.param ? "ShardedGroup" : "Cluster";
}

INSTANTIATE_TEST_SUITE_P(Fronts, ReplicaGroupLifecycleTest, ::testing::Bool(),
                         front_name);

/// The same fronts under a compaction cap, so a member's durable image holds
/// a snapshot that its recovery installs.
class CompactingLifecycleTest : public ReplicaGroupLifecycleTest {
 protected:
  CompactingLifecycleTest() : ReplicaGroupLifecycleTest("raft", 16) {}
};

TEST_P(CompactingLifecycleTest, RecoveryIsUntraced) {
  using Kind = RecordingTrace::Kind;
  harness::ReplicaGroup& g = *group_;
  const int victim = follower();
  const NodeId id = g.id(victim);
  RecordingTrace trace;
  g.set_trace(&trace);
  run_for(sec(1));

  g.crash(victim);
  ASSERT_TRUE(g.store(victim).snapshot().valid());
  const size_t crashed_at = trace.events.size();
  run_for(msec(500));
  g.restart(victim);
  ASSERT_TRUE(g.server(victim).recovery().recovered);
  // The recovery installed the snapshot and replayed the WAL behind the
  // trace's back: the victim's first event after the crash is its restart.
  size_t first = crashed_at;
  while (first < trace.events.size() && trace.events[first].replica != id) {
    ++first;
  }
  ASSERT_LT(first, trace.events.size());
  EXPECT_EQ(trace.events[first].kind, Kind::kRestart);
  // From there on the rebuilt node is traced like any other.
  run_for(sec(1));
  EXPECT_GT(trace.count(Kind::kWatermark, id, first), 0);
}

INSTANTIATE_TEST_SUITE_P(Fronts, CompactingLifecycleTest, ::testing::Bool(),
                         front_name);

/// The same fronts running Mencius: a crashed member's colleagues revoke
/// its slots, so both counters praft_bench reports move.
class MenciusLifecycleTest : public ReplicaGroupLifecycleTest {
 protected:
  MenciusLifecycleTest() : ReplicaGroupLifecycleTest("mencius") {}

  /// praft_bench's formula for its two consensus counters must add up to
  /// the groups' stats(): the cluster's retired_*() plus every live
  /// replica's own NodeIface counts.
  void expect_bench_formula_holds() {
    int64_t rollbacks = cluster_->retired_pipeline_rollbacks();
    int64_t revocations = cluster_->retired_revocations();
    consensus::Stats want;
    for (const harness::ReplicaGroup* g : cluster_->groups()) {
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

TEST(ReplicaGroupTest, CrashAndRestartNeedAHostStore) {
  // A factory-started group gives its hosts no store: its members are
  // diskless and can neither crash nor restart.
  harness::ClusterConfig cfg;
  cfg.num_replicas = 3;
  cfg.latency = sim::LatencyMatrix(3, msec(1));
  harness::Cluster cluster(std::move(cfg));
  cluster.build_replicas(
      [](harness::NodeHost& host, const consensus::Group& group) {
        return std::make_unique<harness::LogServer>(
            host, group, harness::CostModel{}, "raft");
      });
  ASSERT_GE(cluster.establish_leader(0), 0);
  EXPECT_EQ(cluster.server(1).host().store(), nullptr);
  EXPECT_THROW(cluster.crash_replica(1), CheckFailure);
  EXPECT_THROW(cluster.restart_replica(1), CheckFailure);
  EXPECT_TRUE(cluster.replica_up(1));
  EXPECT_EQ(cluster.restarts(), 0);
}

}  // namespace
}  // namespace praft
