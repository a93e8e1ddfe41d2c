// Figure 9(c): peak throughput vs read percentage (50/90/99%). Expected
// shape: Raft, Raft* and LL plateau at the leader's CPU capacity; Raft*-PQL
// scales with the read fraction because every replica serves reads locally
// (paper: 1.6x at 90%, 1.9x at 99%).
#include "bench_util.h"

using namespace praft;

namespace {
constexpr uint64_t kSeed = 90003;
}  // namespace
using harness::ExperimentConfig;
using harness::SystemKind;

int main(int argc, char** argv) {
  bench::JsonEmitter json("fig9c", argc, argv);
  json.set_seed(kSeed);
  bench::print_header("Fig 9c — Peak throughput vs read percentage",
                      "Wang et al., PODC'19, Figure 9(c)");
  const SystemKind systems[] = {SystemKind::kRaft, SystemKind::kRaftStar,
                                SystemKind::kRaftStarLL,
                                SystemKind::kRaftStarPql};
  const double read_pcts[] = {0.50, 0.90, 0.99};
  std::printf("%-14s %8s %14s\n", "system", "read%", "tput (ops/s)");
  double raft_tput[3] = {0, 0, 0};
  for (SystemKind sys : systems) {
    int col = 0;
    for (double rp : read_pcts) {
      ExperimentConfig cfg;
      cfg.system = sys;
      cfg.workload = bench::fig9_workload();
      cfg.workload.read_fraction = rp;
      cfg.clients_per_region = 1200;  // enough to saturate the leader CPU
      cfg.leader_replica = 0;
      cfg.run = sec(4);
      cfg.warmup = sec(3);
      cfg.cluster.seed = kSeed;
      const auto res = harness::run_experiment(cfg);
      if (sys == SystemKind::kRaft) raft_tput[col] = res.throughput_ops;
      char label[32];
      std::snprintf(label, sizeof(label), "reads=%.0f%%", rp * 100);
      json.add_throughput(harness::system_name(sys), label,
                          res.throughput_ops);
      std::printf("%-14s %7.0f%% %14.0f", harness::system_name(sys), rp * 100,
                  res.throughput_ops);
      if (sys == SystemKind::kRaftStarPql && raft_tput[col] > 0) {
        std::printf("   (%.2fx Raft)", res.throughput_ops / raft_tput[col]);
      }
      std::printf("\n");
      ++col;
    }
  }
  return json.write() ? 0 : 1;
}
