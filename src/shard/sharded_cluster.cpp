#include "shard/sharded_cluster.h"

#include "common/check.h"

namespace praft::shard {

namespace {

harness::ClusterConfig cluster_config(const ShardedClusterConfig& cfg) {
  PRAFT_CHECK_MSG(cfg.protocols.size() == 1,
                  "every group runs the same one protocol");
  harness::ClusterConfig cc;
  cc.num_replicas = cfg.replicas_per_group;
  cc.num_groups = cfg.num_groups;
  cc.num_machines = cfg.num_machines;
  cc.spread_leaders = cfg.spread_leaders;
  cc.latency = cfg.latency;
  cc.costs = cfg.costs;
  cc.seed = cfg.seed;
  return cc;
}

}  // namespace

ShardedCluster::ShardedCluster(const ShardedClusterConfig& cfg)
    : harness::Cluster(cluster_config(cfg)), protocol_(cfg.protocols[0]),
      timing_(cfg.timing), router_(ShardMap(cfg.num_groups)) {}

void ShardedCluster::build() {
  build_replicas(protocol_, timing_);
  for (int g = 0; g < num_groups(); ++g) {
    router_.set_target(g, replica_id(g, 0));
  }
}

}  // namespace praft::shard
