// Figure 10(a): throughput vs client count, 8-byte requests (CPU-bound).
// Expected shape: single-leader systems plateau when the leader's CPU
// saturates (~41K ops/s in the paper); Raft*-Mencius spreads the leader work
// round-robin and reaches a higher plateau (~55K). At small client counts
// Raft-Oregon and Raft*-M-0% lead on latency grounds.
#include "bench_util.h"

using namespace praft;

namespace {
constexpr uint64_t kSeedBase = 100001;
}  // namespace
using harness::ExperimentConfig;
using harness::SystemKind;

namespace {
double run_one(SystemKind sys, int clients, double conflict, int leader,
               uint32_t vsize) {
  ExperimentConfig cfg;
  cfg.system = sys;
  cfg.workload = bench::fig10_workload(vsize, conflict);
  cfg.clients_per_region = clients;
  cfg.leader_replica = leader;
  cfg.run = sec(4);
  cfg.warmup = sec(2);
  // Stamped into the JSON header as the file base; each run offsets
  // by its client count.
  cfg.cluster.seed = kSeedBase + static_cast<uint64_t>(clients);
  return harness::run_experiment(cfg).throughput_ops;
}
}  // namespace

int main(int argc, char** argv) {
  bench::JsonEmitter json("fig10a", argc, argv);
  json.set_seed(kSeedBase);
  bench::print_header("Fig 10a — Throughput vs clients/region, 8 B (CPU-bound)",
                      "Wang et al., PODC'19, Figure 10(a)");
  std::printf("%-16s", "clients/region");
  for (int c : {50, 200, 600, 1200, 2000}) std::printf("%10d", c);
  std::printf("\n");
  struct Config {
    const char* name;
    SystemKind sys;
    double conflict;
    int leader;
  };
  const Config configs[] = {
      {"Raft*-M-100%", SystemKind::kRaftStarMencius, 1.0, 0},
      {"Raft*-M-0%", SystemKind::kRaftStarMencius, 0.0, 0},
      {"Raft-Oregon", SystemKind::kRaft, 0.0, 0},
      {"Raft*-Oregon", SystemKind::kRaftStar, 0.0, 0},
      {"Raft-Seoul", SystemKind::kRaft, 0.0, 4},
  };
  for (const Config& c : configs) {
    std::printf("%-16s", c.name);
    for (int clients : {50, 200, 600, 1200, 2000}) {
      const double tput = run_one(c.sys, clients, c.conflict, c.leader, 8);
      char label[32];
      std::snprintf(label, sizeof(label), "clients=%d", clients);
      json.add_throughput(c.name, label, tput);
      std::printf("%10.0f", tput);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  return json.write() ? 0 : 1;
}
