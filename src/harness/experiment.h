#pragma once

#include <string>
#include <vector>

#include "harness/cluster.h"

namespace praft::harness {

/// Which replicated system a run measures (the legends of Figs. 9 and 10).
enum class SystemKind {
  kRaft,
  kRaftStar,
  kPaxos,
  kRaftStarPql,
  kRaftStarLL,
  kRaftStarMencius,
};

const char* system_name(SystemKind k);

/// One experiment point: a system, a workload, a client count, a duration.
struct ExperimentConfig {
  SystemKind system = SystemKind::kRaft;
  /// When non-empty, overrides `system`: the replicas run this consensus
  /// registry protocol ("raft", "raftstar", "multipaxos", "mencius", ...)
  /// behind the generic LogServer adapter, selected at runtime. kRaft,
  /// kRaftStar and kPaxos build by registry name too.
  std::string protocol;
  /// Protocol timing knobs (election/heartbeat cadence, batching, pipeline
  /// window). Honoured by every replica built by registry name (`protocol`,
  /// or kRaft/kRaftStar/kPaxos); PQL, LL and Mencius keep the defaults.
  consensus::TimingOptions timing;
  /// When >= 0, replaces the aws5 geo matrix with a uniform all-pairs RTT
  /// (sim::LatencyMatrix flat constructor) — the pipelining bench sweeps
  /// this from LAN to intercontinental.
  Duration flat_rtt = -1;
  kv::WorkloadConfig workload;
  int clients_per_region = 50;
  int leader_replica = 0;  // leader site (ignored by Mencius)
  Duration run = sec(10);
  Duration warmup = sec(2);
  Duration cooldown = sec(1);
  uint64_t seed = 1;
  bool model_cpu = true;
  bool model_bandwidth = false;  // Fig. 10b/d turn this on
};

/// Latency summary for one site class, microseconds.
struct LatencySummary {
  int64_t count = 0;
  int64_t p50 = 0;
  int64_t p90 = 0;
  int64_t p99 = 0;
};

LatencySummary summarize(const Histogram& h);

struct ExperimentResult {
  double throughput_ops = 0;
  LatencySummary leader_reads, leader_writes;
  LatencySummary follower_reads, follower_writes;
  int leader_replica = -1;
  uint64_t client_retries = 0;
};

/// Builds the §5 testbed (5 regions, one replica + clients per region),
/// runs it, and returns the measured figures.
ExperimentResult run_experiment(const ExperimentConfig& cfg);

}  // namespace praft::harness
