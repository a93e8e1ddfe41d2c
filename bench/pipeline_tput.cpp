// Replication-pipelining benchmark: end-to-end write throughput and client
// latency for all four protocols, with the per-peer in-flight window
// (consensus::PeerPipeline) on vs off, swept across a flat all-pairs RTT
// from LAN to intercontinental. Emits BENCH_pipeline.json.
//
// Both modes run with the same small append batch (64 entries) so the
// unpipelined baseline is a genuine stop-and-wait: one batch per peer per
// RTT. Pipelining should win by roughly RTT / service-time once the RTT —
// not the leader's CPU — is the bottleneck; at LAN scale the two must tie
// (both CPU-capped), which is the no-regression guard.
#include <cstdio>

#include "bench_util.h"

using namespace praft;

namespace {

constexpr uint64_t kSeed = 90020;

struct Point {
  Duration rtt;
  const char* tag;
};

}  // namespace

int main(int argc, char** argv) {
  bench::JsonEmitter json("pipeline", argc, argv, "BENCH_pipeline.json");
  json.set_seed(kSeed);
  bench::print_header("Replication pipelining throughput",
                      "per-peer in-flight window on/off x RTT sweep (PR 8)");

  const Point points[] = {
      {msec(1) / 2, "rtt0.5ms"},
      {msec(25), "rtt25ms"},
      {msec(50), "rtt50ms"},
      {msec(150), "rtt150ms"},
  };
  const char* protocols[] = {"raft", "raftstar", "multipaxos", "mencius"};
  const harness::SystemKind systems[] = {
      harness::SystemKind::kRaft, harness::SystemKind::kRaftStar,
      harness::SystemKind::kPaxos, harness::SystemKind::kMencius};

  // ops/s by [protocol][point][pipelined] for the speedup summary.
  double tput[4][4][2] = {};

  for (int pi = 0; pi < 4; ++pi) {
    for (int ri = 0; ri < 4; ++ri) {
      for (int pipe = 0; pipe <= 1; ++pipe) {
        harness::ExperimentConfig cfg;
        cfg.system = systems[pi];
        cfg.cluster.latency = sim::LatencyMatrix(5, points[ri].rtt);
        cfg.workload = bench::fig10_workload(/*value_size=*/8,
                                             /*conflict_rate=*/0.0);
        cfg.clients_per_region = 80;
        cfg.run = sec(3);
        cfg.warmup = sec(1);
        cfg.cluster.seed = kSeed;
        // Same bounded batch both modes: off == stop-and-wait per peer.
        cfg.timing.max_entries_per_batch = 64;
        cfg.timing.pipeline = (pipe == 1);
        const auto res = harness::run_experiment(cfg);
        tput[pi][ri][pipe] = res.throughput_ops;

        char label[64];
        std::snprintf(label, sizeof(label), "%s-%s", points[ri].tag,
                      pipe ? "pipelined" : "stopwait");
        json.add_throughput(protocols[pi], label, res.throughput_ops);
        char cls[80];
        std::snprintf(cls, sizeof(cls), "%s-writes", label);
        json.add_latency(protocols[pi], cls, res.leader_writes);
        std::printf("%-12s %-9s %-9s %10.0f ops/s   write p50 %7.1f ms  "
                    "p99 %7.1f ms\n",
                    protocols[pi], points[ri].tag,
                    pipe ? "pipelined" : "stopwait", res.throughput_ops,
                    res.leader_writes.p50 / 1000.0,
                    res.leader_writes.p99 / 1000.0);
      }
    }
  }

  // Speedup summary: pipelined / stop-and-wait per protocol per RTT. The
  // acceptance bar is >= 2x at 50 ms for the leader-based protocols and no
  // LAN regression (ratio ~1 at 0.5 ms is expected — both CPU-capped).
  std::printf("\nspeedup (pipelined / stop-and-wait):\n");
  for (int pi = 0; pi < 4; ++pi) {
    std::printf("  %-12s", protocols[pi]);
    for (int ri = 0; ri < 4; ++ri) {
      const double base = tput[pi][ri][0];
      const double ratio = base > 0 ? tput[pi][ri][1] / base : 0;
      json.add_value(protocols[pi], points[ri].tag, "pipeline_speedup",
                     ratio);
      std::printf("  %s %5.2fx", points[ri].tag, ratio);
    }
    std::printf("\n");
  }

  return json.write() ? 0 : 1;
}
