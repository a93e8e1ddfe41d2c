// Multi-group scale-out benchmark (PR 9): aggregate write throughput of a
// hash-sharded KV over N independent consensus groups sharing 15 machines
// (5-way replication, stride placement), swept across group counts, for
// raft and multipaxos — plus the leader-placement ablation at 8 groups:
// Mencius-style spread (group g's leader on machine g mod 15) vs co-located
// (every group's leader piled onto machine 0). Emits BENCH_shard_scaling.json.
//
// The single-group row runs the same protocol stack, cost model, timing and
// workload as BENCH_pipeline's LAN point, so it must land within noise of
// that committed baseline (~44k ops/s: one leader's CPU). Scale-out comes
// from adding LEADERS, not replicas: with leaders spread, aggregate
// throughput grows until every machine's serial CPU saturates (~3.5x at 8
// groups on this topology); with leaders co-located it stays pinned at one
// machine's capacity, which is the whole argument for placement.
#include <cstdio>

#include "bench_util.h"

using namespace praft;

namespace {

constexpr uint64_t kSeed = 90030;
constexpr int kMachines = 15;
constexpr int kReplicasPerGroup = 5;

harness::ExperimentConfig base_config(harness::SystemKind system, int groups,
                                      bool spread) {
  harness::ExperimentConfig cfg;
  cfg.system = system;
  cfg.cluster.num_groups = groups;
  cfg.cluster.num_machines = kMachines;
  cfg.cluster.num_replicas = kReplicasPerGroup;
  cfg.cluster.spread_leaders = spread;
  // LAN, same as the pipeline bench's 0.5 ms; one latency site per machine,
  // so per-site metrics stay per-machine.
  cfg.cluster.latency = sim::LatencyMatrix(kMachines, msec(1) / 2);
  cfg.cluster.seed = kSeed;
  cfg.workload = bench::fig10_workload(/*value_size=*/8, /*conflict_rate=*/0.0);
  cfg.clients_per_region = 80;
  cfg.run = sec(3);
  cfg.warmup = sec(1);
  cfg.cooldown = sec(1);
  // Same bounded append batch as the committed single-group baseline.
  cfg.timing.max_entries_per_batch = 64;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonEmitter json("shard_scaling", argc, argv,
                          "BENCH_shard_scaling.json");
  json.set_seed(kSeed);
  bench::print_header(
      "Sharded KV scale-out throughput",
      "N consensus groups x 15 machines, spread vs co-located leaders (PR 9)");

  const int group_counts[] = {1, 2, 4, 8, 16};
  const char* protocols[] = {"raft", "multipaxos"};
  const harness::SystemKind systems[] = {harness::SystemKind::kRaft,
                                         harness::SystemKind::kPaxos};
  double tput[2][5] = {};  // [protocol][group point], spread placement

  for (int pi = 0; pi < 2; ++pi) {
    for (int gi = 0; gi < 5; ++gi) {
      const auto cfg =
          base_config(systems[pi], group_counts[gi], /*spread=*/true);
      const auto res = harness::run_experiment(cfg);
      tput[pi][gi] = res.throughput_ops;

      char label[48];
      std::snprintf(label, sizeof(label), "groups=%d-spread",
                    group_counts[gi]);
      json.add_throughput(protocols[pi], label, res.throughput_ops);
      char cls[64];
      std::snprintf(cls, sizeof(cls), "%s-writes", label);
      json.add_latency(protocols[pi], cls, res.writes);
      std::printf("%-12s %2d group(s) spread     %10.0f ops/s   "
                  "write p50 %7.1f ms  p99 %7.1f ms\n",
                  protocols[pi], group_counts[gi], res.throughput_ops,
                  res.writes.p50 / 1000.0, res.writes.p99 / 1000.0);
    }
  }

  // Placement ablation at 8 groups: all preferred leaders on machine 0.
  std::printf("\nLeader-placement ablation (8 groups):\n");
  double colocated[2] = {};
  for (int pi = 0; pi < 2; ++pi) {
    const auto cfg = base_config(systems[pi], 8, /*spread=*/false);
    const auto res = harness::run_experiment(cfg);
    colocated[pi] = res.throughput_ops;
    json.add_throughput(protocols[pi], "groups=8-colocated",
                        res.throughput_ops);
    json.add_latency(protocols[pi], "groups=8-colocated-writes", res.writes);
    std::printf("%-12s  8 group(s) colocated  %10.0f ops/s   "
                "write p50 %7.1f ms  p99 %7.1f ms\n",
                protocols[pi], res.throughput_ops, res.writes.p50 / 1000.0,
                res.writes.p99 / 1000.0);
  }

  // Scale-out summary: the acceptance gates are >= 3x aggregate throughput
  // at 8 groups vs 1 group, and spread beating co-located.
  std::printf("\nScale-out summary:\n");
  bool pass = true;
  for (int pi = 0; pi < 2; ++pi) {
    const double scale8 = tput[pi][3] / tput[pi][0];
    const double ablation = tput[pi][3] / colocated[pi];
    json.add_value(protocols[pi], "8v1", "speedup", scale8);
    json.add_value(protocols[pi], "spread-vs-colocated", "speedup", ablation);
    const bool ok = scale8 >= 3.0 && ablation > 1.0;
    pass = pass && ok;
    std::printf("%-12s 8-group speedup %.2fx (gate >= 3x)   "
                "spread/colocated %.2fx (gate > 1x)   %s\n",
                protocols[pi], scale8, ablation, ok ? "PASS" : "FAIL");
  }

  if (!json.write()) return 1;
  return pass ? 0 : 1;
}
