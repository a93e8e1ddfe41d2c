// Figure 10(d): latency with 50 clients/region, 4-KiB requests, bandwidth
// modeled. Same shape as 10(c) shifted up by serialization delays.
#include "bench_util.h"

using namespace praft;

namespace {
constexpr uint64_t kSeedBase = 100401;
}  // namespace
using harness::ExperimentConfig;
using harness::SystemKind;

namespace {
void run_one(bench::JsonEmitter& json, const char* name, SystemKind sys,
             double conflict, int leader, uint64_t seed) {
  ExperimentConfig cfg;
  cfg.system = sys;
  cfg.workload = bench::fig10_workload(4096, conflict);
  cfg.clients_per_region = 50;
  cfg.leader_replica = leader;
  cfg.cluster.replica_egress = bench::fig10_egress();
  cfg.run = sec(8);
  cfg.warmup = sec(3);
  cfg.cluster.seed = seed;
  const auto res = harness::run_experiment(cfg);
  bench::print_latency_row(name, "Leader", res.leader_writes);
  bench::print_latency_row(name, "Followers", res.follower_writes);
  json.add_latency(name, "Leader", res.leader_writes);
  json.add_latency(name, "Followers", res.follower_writes);
}
}  // namespace

int main(int argc, char** argv) {
  bench::JsonEmitter json("fig10d", argc, argv);
  json.set_seed(kSeedBase);
  bench::print_header("Fig 10d — Latency, 4 KiB requests (50 clients/region)",
                      "Wang et al., PODC'19, Figure 10(d)");
  run_one(json, "Raft-Oregon", SystemKind::kRaft, 0.0, 0, kSeedBase + 0);
  run_one(json, "Raft*-Oregon", SystemKind::kRaftStar, 0.0, 0, kSeedBase + 1);
  run_one(json, "Raft-Seoul", SystemKind::kRaft, 0.0, 4, kSeedBase + 2);
  run_one(json, "Raft*-M-0%", SystemKind::kRaftStarMencius, 0.0, 0, kSeedBase + 3);
  run_one(json, "Raft*-M-100%", SystemKind::kRaftStarMencius, 1.0, 0, kSeedBase + 4);
  std::printf("('Leader' = the Oregon site for the Mencius rows.)\n");
  return json.write() ? 0 : 1;
}
