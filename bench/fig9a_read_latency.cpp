// Figure 9(a): read latency at the leader site vs follower sites for
// Raft*-PQL, Raft*-LL, Raft and Raft* (50 clients/region, 90% reads, 5%
// conflicts). Expected shape: PQL serves reads locally EVERYWHERE (~1 ms);
// LL only at the leader; Raft/Raft* pay a WAN quorum round trip everywhere,
// and follower clients additionally pay the forwarding hop.
#include "bench_util.h"

using namespace praft;

namespace {
constexpr uint64_t kSeed = 90001;
}  // namespace
using harness::ExperimentConfig;
using harness::SystemKind;

int main(int argc, char** argv) {
  bench::JsonEmitter json("fig9a", argc, argv);
  json.set_seed(kSeed);
  bench::print_header("Fig 9a — Read latency (leader vs followers)",
                      "Wang et al., PODC'19, Figure 9(a)");
  const SystemKind systems[] = {SystemKind::kRaftStarPql, SystemKind::kRaftStarLL,
                                SystemKind::kRaft, SystemKind::kRaftStar};
  for (SystemKind sys : systems) {
    ExperimentConfig cfg;
    cfg.system = sys;
    cfg.workload = bench::fig9_workload();
    cfg.clients_per_region = 50;
    cfg.leader_replica = 0;  // Oregon
    cfg.run = sec(8);
    cfg.warmup = sec(3);  // leases + steady state
    cfg.cluster.seed = kSeed;
    const auto res = harness::run_experiment(cfg);
    bench::print_latency_row(harness::system_name(sys), "Leader",
                             res.leader_reads);
    bench::print_latency_row(harness::system_name(sys), "Followers",
                             res.follower_reads);
    json.add_latency(harness::system_name(sys), "Leader", res.leader_reads);
    json.add_latency(harness::system_name(sys), "Followers",
                     res.follower_reads);
  }
  return json.write() ? 0 : 1;
}
