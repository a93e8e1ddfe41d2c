// Property-style sweeps (TEST_P) over protocols, seeds and fault schedules:
// for every execution the agreement, prefix-consistency and convergence
// invariants must hold. These are the runtime analogues of the TLA+
// invariants in the paper's Appendix B (OneValuePerBallot / LogMatchingInv /
// LeaderCompletenessInv).
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "paxos/node.h"
#include "raft/node.h"
#include "raftstar/node.h"
#include "test_util.h"

namespace praft {
namespace {

using test::ApplyRecord;

enum class Proto { kRaft, kRaftStar, kPaxos };

std::string proto_name(Proto p) {
  switch (p) {
    case Proto::kRaft: return "Raft";
    case Proto::kRaftStar: return "RaftStar";
    case Proto::kPaxos: return "Paxos";
  }
  return "?";
}

harness::Cluster::ServerFactory factory_for(
    Proto p, std::shared_ptr<ApplyRecord> record) {
  switch (p) {
    case Proto::kRaft:
      return test::make_factory<raft::RaftNode>(
          test::fast_options<raft::Options>(), record);
    case Proto::kRaftStar:
      return test::make_factory<raftstar::RaftStarNode>(
          test::fast_options<raftstar::Options>(), record);
    case Proto::kPaxos:
      return test::make_factory<paxos::PaxosNode>(
          test::fast_options<paxos::Options>(), record);
  }
  return {};
}

struct ChaosCase {
  Proto proto;
  uint64_t seed;
  double drop_rate;
  bool crash_leader;
  bool partition_minority;
};

class ChaosTest : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(ChaosTest, AgreementAndConvergence) {
  const ChaosCase& c = GetParam();
  auto record = std::make_shared<ApplyRecord>();
  harness::Cluster cluster(test::lan_config(c.seed));
  cluster.build_replicas(factory_for(c.proto, record));
  cluster.net().faults().set_drop_rate(c.drop_rate);
  ASSERT_GE(cluster.establish_leader(static_cast<int>(c.seed % 5)), 0);
  cluster.metrics().set_window(0, kTimeMax);
  cluster.add_clients(1, test::small_workload(), cluster.sim().now());
  cluster.run_for(sec(2));

  if (c.crash_leader) {
    const int leader = cluster.leader_replica();
    if (leader >= 0) {
      const Time t = cluster.sim().now();
      cluster.net().faults().crash(cluster.server(leader).id(), t, t + sec(3));
    }
  }
  if (c.partition_minority) {
    const Time t = cluster.sim().now();
    cluster.net().faults().isolate(cluster.server(1).id(), t + sec(1),
                                   t + sec(4));
    cluster.net().faults().isolate(cluster.server(2).id(), t + sec(2),
                                   t + sec(5));
  }
  cluster.run_for(sec(8));

  // Heal everything and let the system quiesce.
  cluster.net().faults().set_drop_rate(0.0);
  cluster.stop_clients();
  cluster.run_for(sec(6));

  EXPECT_FALSE(record->violation)
      << proto_name(c.proto) << " violated agreement (seed " << c.seed << ")";
  EXPECT_GT(record->observations, 0);
  EXPECT_TRUE(test::stores_converged(cluster))
      << proto_name(c.proto) << " diverged (seed " << c.seed << ")";
  EXPECT_GT(cluster.metrics().completed(), 0);
}

std::vector<ChaosCase> chaos_cases() {
  std::vector<ChaosCase> cases;
  int i = 0;
  for (Proto p : {Proto::kRaft, Proto::kRaftStar, Proto::kPaxos}) {
    for (uint64_t seed : {101ull, 202ull, 303ull}) {
      ChaosCase c;
      c.proto = p;
      c.seed = seed + static_cast<uint64_t>(i);
      c.drop_rate = (seed % 2 == 0) ? 0.03 : 0.0;
      c.crash_leader = (i % 2 == 0);
      c.partition_minority = (i % 3 == 0);
      cases.push_back(c);
      ++i;
    }
  }
  // A few harsher mixes.
  cases.push_back({Proto::kRaft, 777, 0.08, true, true});
  cases.push_back({Proto::kRaftStar, 888, 0.08, true, true});
  cases.push_back({Proto::kPaxos, 999, 0.08, true, true});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChaosTest, ::testing::ValuesIn(chaos_cases()),
    [](const ::testing::TestParamInfo<ChaosCase>& info) {
      const auto& c = info.param;
      return proto_name(c.proto) + "_seed" + std::to_string(c.seed) + "_drop" +
             std::to_string(static_cast<int>(c.drop_rate * 100)) +
             (c.crash_leader ? "_crash" : "") +
             (c.partition_minority ? "_part" : "");
    });

}  // namespace
}  // namespace praft
