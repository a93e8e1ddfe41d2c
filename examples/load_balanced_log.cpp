// Raft*-Mencius in action: every region is the default leader for its slice
// of the log, so no region forwards its writes anywhere (case study 2).
//
//   build/examples/load_balanced_log
#include <cstdio>

#include "harness/cluster.h"
#include "mencius/server.h"

using namespace praft;

int main() {
  harness::ClusterConfig cfg;
  cfg.seed = 11;
  harness::Cluster cluster(cfg);
  std::vector<mencius::MenciusServer*> servers;
  cluster.build_replicas([&](harness::NodeHost& host,
                             const consensus::Group& group)
                             -> std::unique_ptr<harness::LogServer> {
    auto s = std::make_unique<mencius::MenciusServer>(host, group, cfg.costs);
    servers.push_back(s.get());
    return s;
  });
  cluster.run_for(msec(500));

  kv::WorkloadConfig wl;
  wl.read_fraction = 0.0;  // 100% puts, as in the paper's §5.2
  wl.conflict_rate = 0.0;
  cluster.metrics().set_window(sec(2), sec(12));
  cluster.add_clients(20, wl, cluster.sim().now());
  cluster.run_until(sec(12));

  std::printf("Raft*-Mencius — write latency by region (no forwarding):\n");
  for (SiteId s = 0; s < 5; ++s) {
    const Histogram& writes = cluster.metrics().writes(s);
    std::printf("  %-8s p50 %7.1f ms   p90 %7.1f ms (n=%lld)\n",
                cluster.net().latency().site_name(s).c_str(),
                to_ms(writes.percentile(50)), to_ms(writes.percentile(90)),
                static_cast<long long>(writes.count()));
  }
  int64_t skips = 0;
  for (auto* s : servers) skips += s->node().slots_skipped();
  std::printf("\nthroughput: %.0f ops/s;  slots skipped cluster-wide: %lld\n",
              cluster.metrics().throughput_ops(),
              static_cast<long long>(skips));
  std::printf("CPU busy per replica (balanced leader load):");
  for (int i = 0; i < 5; ++i) {
    std::printf(" %.1fs", static_cast<double>(
                              cluster.server(i).host().cpu_busy()) / 1e6);
  }
  std::printf("\n");
  return 0;
}
