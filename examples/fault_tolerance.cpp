// Failure drill: kill the Raft* leader mid-run, watch a new leader take
// over, bring the old one back, and verify no committed data was lost.
//
//   build/examples/fault_tolerance
#include <cstdio>

#include "harness/cluster.h"
#include "harness/log_server.h"

using namespace praft;

int main() {
  harness::ClusterConfig cfg;
  cfg.seed = 99;
  harness::Cluster cluster(cfg);
  cluster.build_replicas(
      [&](harness::NodeHost& host, const consensus::Group& group) {
        return std::make_unique<harness::LogServer>(host, group, cfg.costs,
                                                    "raftstar");
      });
  const int leader = cluster.establish_leader(0);
  std::printf("t=%.1fs initial leader: replica %d\n",
              static_cast<double>(cluster.sim().now()) / 1e6, leader);

  kv::WorkloadConfig wl;
  wl.read_fraction = 0.5;
  cluster.metrics().set_window(0, kTimeMax);
  cluster.add_clients(5, wl, cluster.sim().now());
  cluster.run_for(sec(5));
  const int64_t before = cluster.metrics().completed();
  std::printf("t=%.1fs committed %lld ops; crashing the leader for 10 s...\n",
              static_cast<double>(cluster.sim().now()) / 1e6,
              static_cast<long long>(before));

  const Time t = cluster.sim().now();
  cluster.net().faults().crash(cluster.server(leader).id(), t, t + sec(10));
  cluster.run_for(sec(5));
  const int new_leader = cluster.leader_replica();
  std::printf("t=%.1fs new leader: replica %d (completed: %lld)\n",
              static_cast<double>(cluster.sim().now()) / 1e6, new_leader,
              static_cast<long long>(cluster.metrics().completed()));

  cluster.run_for(sec(10));  // old leader rejoins and catches up
  cluster.stop_clients();
  cluster.run_for(sec(3));
  const uint64_t fp0 = cluster.server(0).store().fingerprint();
  bool all_equal = true;
  for (int i = 1; i < 5; ++i) {
    all_equal &= cluster.server(i).store().fingerprint() == fp0;
  }
  std::printf("t=%.1fs total committed: %lld; stores converged: %s\n",
              static_cast<double>(cluster.sim().now()) / 1e6,
              static_cast<long long>(cluster.metrics().completed()),
              all_equal ? "yes" : "NO (bug!)");
  return 0;
}
