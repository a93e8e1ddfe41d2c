#pragma once

#include <string>
#include <vector>

#include "consensus/timing.h"
#include "harness/cluster.h"
#include "harness/cost_model.h"
#include "shard/router.h"
#include "sim/latency.h"

namespace praft::shard {

/// The sharded deployment's own configuration, which praft_bench builds:
/// N consensus groups of one protocol over M machines. Every field but
/// `protocols` and `timing` is a harness::ClusterConfig field under another
/// name or the same one.
struct ShardedClusterConfig {
  int num_groups = 4;
  int num_machines = 5;
  int replicas_per_group = 5;
  bool spread_leaders = true;
  /// The consensus protocol every group runs, by registry name. It must
  /// name exactly one.
  std::vector<std::string> protocols = {"raft"};
  consensus::TimingOptions timing;
  sim::LatencyMatrix latency = sim::LatencyMatrix::aws5();
  harness::CostModel costs;
  uint64_t seed = 1;
};

/// A harness::Cluster built from a ShardedClusterConfig, plus the
/// ShardRouter praft_bench's clients route through.
class ShardedCluster : public harness::Cluster {
 public:
  explicit ShardedCluster(const ShardedClusterConfig& cfg);

  /// Builds and starts every group with the config's protocol and timing,
  /// then points the router at each group's member 0.
  void build();

  [[nodiscard]] int replicas_per_group() const { return num_replicas(); }
  [[nodiscard]] const ShardRouter& router() const { return router_; }

 private:
  std::string protocol_;
  consensus::TimingOptions timing_;
  ShardRouter router_;
};

}  // namespace praft::shard
