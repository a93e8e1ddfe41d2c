// Figure 9(b): write latency. Expected shape: Raft*-PQL writes are a bit
// SLOWER than everyone else's — commit must wait for every lease holder to
// acknowledge, not just the fastest majority (§5.1).
#include "bench_util.h"

using namespace praft;

namespace {
constexpr uint64_t kSeed = 90002;
}  // namespace
using harness::ExperimentConfig;
using harness::SystemKind;

int main(int argc, char** argv) {
  bench::JsonEmitter json("fig9b", argc, argv);
  json.set_seed(kSeed);
  bench::print_header("Fig 9b — Write latency (leader vs followers)",
                      "Wang et al., PODC'19, Figure 9(b)");
  const SystemKind systems[] = {SystemKind::kRaftStarPql, SystemKind::kRaftStarLL,
                                SystemKind::kRaft, SystemKind::kRaftStar};
  for (SystemKind sys : systems) {
    ExperimentConfig cfg;
    cfg.system = sys;
    cfg.workload = bench::fig9_workload();
    cfg.clients_per_region = 50;
    cfg.leader_replica = 0;
    cfg.run = sec(8);
    cfg.warmup = sec(3);
    cfg.cluster.seed = kSeed;
    const auto res = harness::run_experiment(cfg);
    bench::print_latency_row(harness::system_name(sys), "Leader",
                             res.leader_writes);
    bench::print_latency_row(harness::system_name(sys), "Followers",
                             res.follower_writes);
    json.add_latency(harness::system_name(sys), "Leader", res.leader_writes);
    json.add_latency(harness::system_name(sys), "Followers",
                     res.follower_writes);
  }
  return json.write() ? 0 : 1;
}
