// Figure 9(d): throughput speedup of Raft*-PQL over Raft* as a function of
// the conflict rate (0%..50%, 90% reads). Expected shape: the speedup grows
// as conflicts shrink — conflict-free reads return immediately instead of
// waiting for concurrent writes to commit.
#include "bench_util.h"

using namespace praft;

namespace {
constexpr uint64_t kSeed = 90004;
}  // namespace
using harness::ExperimentConfig;
using harness::SystemKind;

namespace {
double run_one(harness::SystemKind sys, double conflict) {
  ExperimentConfig cfg;
  cfg.system = sys;
  cfg.workload = bench::fig9_workload();
  cfg.workload.conflict_rate = conflict;
  cfg.clients_per_region = 400;
  cfg.leader_replica = 0;
  cfg.run = sec(4);
  cfg.warmup = sec(3);
  cfg.cluster.seed = kSeed;
  return harness::run_experiment(cfg).throughput_ops;
}
}  // namespace

int main(int argc, char** argv) {
  bench::JsonEmitter json("fig9d", argc, argv);
  json.set_seed(kSeed);
  bench::print_header("Fig 9d — Raft*-PQL speedup over Raft* vs conflict rate",
                      "Wang et al., PODC'19, Figure 9(d)");
  std::printf("%8s %16s %16s %10s\n", "conflict", "Raft*-PQL", "Raft*",
              "speedup");
  for (double conflict : {0.50, 0.40, 0.30, 0.20, 0.10, 0.0}) {
    const double pql = run_one(SystemKind::kRaftStarPql, conflict);
    const double rs = run_one(SystemKind::kRaftStar, conflict);
    char label[32];
    std::snprintf(label, sizeof(label), "conflict=%.0f%%", conflict * 100);
    json.add_throughput("Raft*-PQL", label, pql);
    json.add_throughput("Raft*", label, rs);
    std::printf("%7.0f%% %16.0f %16.0f %9.0f%%\n", conflict * 100, pql, rs,
                (pql / rs - 1.0) * 100.0);
  }
  return json.write() ? 0 : 1;
}
