// Figure 10(b): throughput vs client count, 4-KiB requests (network-bound).
// Expected shape: Raft saturates the leader's NIC egress; Raft-Oregon beats
// Raft-Seoul (~+30%, better uplink); Raft*-Mencius uses every replica's
// egress and beats Raft-Oregon (~+70% in the paper).
#include "bench_util.h"

using namespace praft;

namespace {
constexpr uint64_t kSeedBase = 100002;
}  // namespace
using harness::ExperimentConfig;
using harness::SystemKind;

namespace {
double run_one(SystemKind sys, int clients, double conflict, int leader) {
  ExperimentConfig cfg;
  cfg.system = sys;
  cfg.workload = bench::fig10_workload(4096, conflict);
  cfg.clients_per_region = clients;
  cfg.leader_replica = leader;
  cfg.cluster.replica_egress = bench::fig10_egress();
  cfg.run = sec(4);
  cfg.warmup = sec(2);
  // Stamped into the JSON header as the file base; each run offsets
  // by its client count.
  cfg.cluster.seed = kSeedBase + static_cast<uint64_t>(clients);
  return harness::run_experiment(cfg).throughput_ops;
}
}  // namespace

int main(int argc, char** argv) {
  bench::JsonEmitter json("fig10b", argc, argv);
  json.set_seed(kSeedBase);
  bench::print_header(
      "Fig 10b — Throughput vs clients/region, 4 KiB (network-bound)",
      "Wang et al., PODC'19, Figure 10(b)");
  std::printf("%-16s", "clients/region");
  for (int c : {25, 50, 100, 200, 400}) std::printf("%10d", c);
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
    for (int clients : {25, 50, 100, 200, 400}) {
      const double tput = run_one(c.sys, clients, c.conflict, c.leader);
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
