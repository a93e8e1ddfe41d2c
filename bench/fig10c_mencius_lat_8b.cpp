// Figure 10(c): latency with 50 clients/region, 8-byte requests. Expected
// shape: Raft-Oregon's leader-site clients see the lowest latency (nearest
// quorum ~69 ms RTT); Raft*-M-100% pays for total ordering (a server must
// learn every earlier slot's decision before executing); Raft*-M-0% only
// waits for other owners' append/skip messages but is still bounded by the
// farthest replica (Seoul).
#include "bench_util.h"

using namespace praft;

namespace {
constexpr uint64_t kSeedBase = 100301;
}  // namespace
using harness::ExperimentConfig;
using harness::SystemKind;

namespace {
void run_one(bench::JsonEmitter& json, const char* name, SystemKind sys,
             double conflict, int leader, uint32_t vsize, uint64_t seed) {
  ExperimentConfig cfg;
  cfg.system = sys;
  cfg.workload = bench::fig10_workload(vsize, conflict);
  cfg.clients_per_region = 50;
  cfg.leader_replica = leader;
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
  bench::JsonEmitter json("fig10c", argc, argv);
  json.set_seed(kSeedBase);
  bench::print_header("Fig 10c — Latency, 8 B requests (50 clients/region)",
                      "Wang et al., PODC'19, Figure 10(c)");
  run_one(json, "Raft-Oregon", SystemKind::kRaft, 0.0, 0, 8, kSeedBase + 0);
  run_one(json, "Raft*-Oregon", SystemKind::kRaftStar, 0.0, 0, 8,
          kSeedBase + 1);
  run_one(json, "Raft-Seoul", SystemKind::kRaft, 0.0, 4, 8, kSeedBase + 2);
  run_one(json, "Raft*-M-0%", SystemKind::kRaftStarMencius, 0.0, 0, 8,
          kSeedBase + 3);
  run_one(json, "Raft*-M-100%", SystemKind::kRaftStarMencius, 1.0, 0, 8,
          kSeedBase + 4);
  std::printf("('Leader' = the Oregon site for the Mencius rows.)\n");
  return json.write() ? 0 : 1;
}
