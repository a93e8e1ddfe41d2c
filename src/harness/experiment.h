#pragma once

#include "harness/cluster.h"

namespace praft::harness {

/// Which replicated system a run measures (the legends of Figs. 9 and 10).
/// kRaft, kRaftStar, kPaxos and kMencius are the log-only protocols, built
/// by name through consensus::make_node behind the plain LogServer (which
/// replies at apply); the others add an optimization in their adapter.
enum class SystemKind {
  kRaft,
  kRaftStar,
  kPaxos,
  kMencius,
  kRaftStarPql,
  kRaftStarLL,
  kRaftStarMencius,  // Mencius with the early ack (mencius::MenciusServer)
};

const char* system_name(SystemKind k);

/// One experiment point: a system on a deployment, a workload, a client
/// count, a duration.
struct ExperimentConfig {
  SystemKind system = SystemKind::kRaft;
  /// The deployment: groups, machines and placement, latency matrix,
  /// per-site NIC egress, CPU costs and seed. The default is the §5 testbed
  /// (one group, one replica per aws5 region).
  ClusterConfig cluster;
  /// Protocol timing knobs (election/heartbeat cadence, batching, pipeline
  /// window). Honoured by the log-only systems; PQL, LL and Mencius with
  /// the early ack keep the defaults.
  consensus::TimingOptions timing;
  kv::WorkloadConfig workload;
  /// Closed-loop clients next to every machine (one machine per region on
  /// the §5 testbed).
  int clients_per_region = 50;
  /// The member of the one group warmed up as its leader (the leader site of
  /// the result's split). Several groups each warm up their member 0, and a
  /// leaderless system warms up none.
  int leader_replica = 0;
  Duration run = sec(10);
  Duration warmup = sec(2);
  Duration cooldown = sec(1);
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
  double throughput_ops = 0;  // aggregate across all groups
  /// Every site.
  LatencySummary reads, writes;
  /// The site of `leader_replica`'s machine, and every other site.
  LatencySummary leader_reads, leader_writes;
  LatencySummary follower_reads, follower_writes;
};

/// Builds the deployment, warms up its leaders (a leaderless system lets its
/// status beats flow instead), runs the closed-loop workload, and returns
/// the measured figures over the trimmed window. PRAFT_CHECK-fails when a
/// leader cannot be established.
ExperimentResult run_experiment(const ExperimentConfig& cfg);

}  // namespace praft::harness
