// Quickstart: bring up a 5-region cluster in the simulator running ANY of
// the consensus protocols — selected by name at runtime through the
// consensus::make_node table — run a client workload, and inspect the
// replicated state.
//
//   build/examples/quickstart [raft|raftstar|multipaxos|mencius]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "consensus/registry.h"
#include "harness/cluster.h"
#include "harness/log_server.h"

using namespace praft;

int main(int argc, char** argv) {
  const std::string protocol = argc > 1 ? argv[1] : "raftstar";
  const std::vector<std::string> known = consensus::protocol_names();
  if (std::find(known.begin(), known.end(), protocol) == known.end()) {
    std::printf("unknown protocol \"%s\"; registered:", protocol.c_str());
    for (const auto& name : known) std::printf(" %s", name.c_str());
    std::printf("\n");
    return 1;
  }

  // 1. A cluster over the paper's 5-region AWS latency matrix.
  harness::ClusterConfig cfg;
  cfg.num_replicas = 5;
  cfg.seed = 42;
  harness::Cluster cluster(cfg);

  // 2. One replica per region, protocol picked at runtime by name.
  std::printf("protocol: %s\n", protocol.c_str());
  cluster.build_replicas(protocol);

  // 3. Elect the Oregon replica (leaderless protocols like Mencius skip
  //    this: every replica owns its residue class) and attach closed-loop
  //    clients everywhere.
  if (!cluster.server(0).leaderless()) {
    const int leader = cluster.establish_leader(0);
    std::printf("leader elected: replica %d (%s)\n", leader,
                cluster.net().latency().site_name(leader).c_str());
  } else {
    cluster.run_for(msec(500));  // let status beats flow
  }

  kv::WorkloadConfig wl;
  wl.read_fraction = 0.5;
  cluster.metrics().set_window(sec(2), sec(10));
  cluster.add_clients(/*per_region=*/10, wl, cluster.sim().now());

  // 4. Run 10 simulated seconds, then let in-flight traffic quiesce.
  cluster.run_until(sec(10));
  cluster.stop_clients();
  cluster.run_for(sec(2));
  std::printf("completed ops: %lld  (%.0f ops/s)\n",
              static_cast<long long>(cluster.metrics().completed()),
              cluster.metrics().throughput_ops());
  for (SiteId s = 0; s < 5; ++s) {
    const Histogram& reads = cluster.metrics().reads(s);
    if (reads.count() == 0) continue;
    std::printf("  %-8s read p50 %6.1f ms   p99 %6.1f ms\n",
                cluster.net().latency().site_name(s).c_str(),
                to_ms(reads.percentile(50)), to_ms(reads.percentile(99)));
  }
  std::printf("replica stores applied: %llu ops each, fingerprints %s\n",
              static_cast<unsigned long long>(
                  cluster.server(0).store().applied_count()),
              [&] {
                const uint64_t fp = cluster.server(0).store().fingerprint();
                for (int i = 1; i < 5; ++i) {
                  if (cluster.server(i).store().fingerprint() != fp) {
                    return "DIVERGED (bug!)";
                  }
                }
                return "all equal";
              }());
  return 0;
}
