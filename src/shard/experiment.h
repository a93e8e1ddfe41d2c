#pragma once

#include <string>

#include "consensus/timing.h"
#include "harness/experiment.h"
#include "kv/workload.h"
#include "sim/latency.h"

namespace praft::shard {

/// One sharded throughput point: N groups of one protocol over M machines,
/// sharded closed-loop clients on every machine, measured over a trimmed
/// window — the scale-out counterpart of harness::ExperimentConfig.
struct ShardExperimentConfig {
  std::string protocol = "raft";
  int num_groups = 4;
  int num_machines = 5;
  int replicas_per_group = 5;
  bool spread_leaders = true;
  consensus::TimingOptions timing;
  /// Uniform all-pairs RTT; < 0 uses the aws5 geo matrix.
  Duration flat_rtt = -1;
  kv::WorkloadConfig workload;
  int clients_per_machine = 50;
  Duration run = sec(10);
  Duration warmup = sec(2);
  Duration cooldown = sec(1);
  uint64_t seed = 1;
};

struct ShardExperimentResult {
  double throughput_ops = 0;  // aggregate across all groups
  harness::LatencySummary reads, writes;
  int groups_led = 0;         // groups with an established leader
  uint64_t client_retries = 0;
};

/// Builds the sharded deployment, establishes every group's preferred
/// leader, runs the sharded closed-loop workload, and returns aggregate
/// figures.
ShardExperimentResult run_shard_experiment(const ShardExperimentConfig& cfg);

}  // namespace praft::shard
