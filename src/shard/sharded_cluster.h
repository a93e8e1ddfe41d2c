#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "consensus/group.h"
#include "consensus/timing.h"
#include "harness/client.h"
#include "harness/cost_model.h"
#include "harness/host.h"
#include "harness/metrics.h"
#include "harness/log_server.h"
#include "harness/replica_group.h"
#include "kv/workload.h"
#include "shard/router.h"
#include "shard/shard_map.h"
#include "sim/network.h"
#include "sim/resources.h"
#include "sim/simulator.h"
#include "storage/wal.h"

namespace praft::shard {

/// World configuration for a sharded deployment: N independent consensus
/// groups over M physical machines. Each group is a replicas_per_group-way
/// replica set; each machine hosts one replica of every group placed on it,
/// and all replicas co-located on a machine contend for that machine's one
/// serial CPU (harness::NodeHost's shared-CPU mode) — co-locating leaders
/// therefore costs real throughput, which is exactly what the placement
/// ablation measures.
struct ShardedClusterConfig {
  int num_groups = 4;
  int num_machines = 5;
  int replicas_per_group = 5;
  /// Leader/member placement. Spread (the default, Mencius-style balancing
  /// at the group level): group g's members sit on machines
  /// (g + j*stride) mod M, so its preferred leader machine is g mod M and
  /// leaders land on distinct machines while N <= M. Co-located (the
  /// ablation baseline): every group uses the same member machines, so all
  /// preferred leaders pile onto machine 0.
  bool spread_leaders = true;
  /// Per-group consensus protocol, by registry name. One entry applies to
  /// all groups; otherwise group g runs protocols[g % size].
  std::vector<std::string> protocols = {"raft"};
  consensus::TimingOptions timing;
  sim::LatencyMatrix latency = sim::LatencyMatrix::aws5();
  harness::CostModel costs;
  uint64_t seed = 1;
};

/// Builds and owns a sharded deployment over ONE shared simulated runtime:
/// a simulator + network, M machine CPUs, N harness::ReplicaGroups of
/// name-built replica servers (each its own consensus::Group, DurableStores
/// and independent leader), the ShardMap/ShardRouter client path, and
/// routed closed-loop clients. The per-group calls below forward to the
/// group's ReplicaGroup; machine-level crash/restart and fault targeting
/// hit every group a machine serves at once.
class ShardedCluster {
 public:
  explicit ShardedCluster(ShardedClusterConfig cfg);

  /// Creates machine CPUs, hosts and servers for every group, and starts
  /// them. Call exactly once, before anything else.
  void build();

  // -- Topology ------------------------------------------------------------
  [[nodiscard]] int num_groups() const { return cfg_.num_groups; }
  [[nodiscard]] int num_machines() const { return cfg_.num_machines; }
  [[nodiscard]] int replicas_per_group() const {
    return cfg_.replicas_per_group;
  }
  /// Machine hosting member `j` of group `g` (the placement policy).
  [[nodiscard]] int member_machine(int g, int j) const;
  [[nodiscard]] int preferred_leader_machine(int g) const {
    return member_machine(g, 0);
  }
  [[nodiscard]] const ShardMap& map() const { return map_; }
  [[nodiscard]] const ShardRouter& router() const { return *router_; }
  [[nodiscard]] const std::string& protocol_of(int g) const;

  // -- Per-group accessors -------------------------------------------------
  [[nodiscard]] harness::ReplicaGroup& group(int g) {
    return groups_[static_cast<size_t>(g)];
  }
  [[nodiscard]] const harness::ReplicaGroup& group(int g) const {
    return groups_[static_cast<size_t>(g)];
  }
  /// Every group, in group order (the machine-level helpers' input).
  [[nodiscard]] std::vector<harness::ReplicaGroup*> groups();
  [[nodiscard]] harness::LogServer& server(int g, int j) {
    return group(g).server(j);
  }
  [[nodiscard]] bool replica_up(int g, int j) const {
    return group(g).up(j);
  }
  [[nodiscard]] NodeId replica_id(int g, int j) const {
    return group(g).id(j);
  }
  /// Member index currently leading group `g` (net-visible replicas only),
  /// or -1.
  [[nodiscard]] int leader_of(int g) const { return group(g).leader(); }

  /// Triggers each group's preferred leader and waits until every group
  /// with an elected-leader protocol leads. Returns how many groups have a
  /// leader at return (== num_groups on success; leaderless protocols count
  /// as led).
  int establish_leaders(Duration deadline = sec(30));

  // -- Machine-level chaos -------------------------------------------------
  /// Power-cuts machine `m`: every group replica it hosts is destroyed
  /// (scheduled callbacks invalidated, unsynced durable writes dropped).
  /// Group replicas elsewhere keep running.
  void crash_machine(int m) { harness::crash_machine(groups(), m); }
  /// Rebuilds every crashed replica hosted on machine `m` from its durable
  /// image and starts it.
  void restart_machine(int m) { harness::restart_machine(groups(), m); }
  [[nodiscard]] int64_t restarts() const;
  /// praft_bench's names: the counts of the replicas that are down right
  /// now, to which it adds each live replica's NodeIface counts.
  [[nodiscard]] int64_t retired_revocations() const {
    return down_stats().revocations_started;
  }
  [[nodiscard]] int64_t retired_pipeline_rollbacks() const {
    return down_stats().pipeline_rollbacks;
  }

  // -- Clients -------------------------------------------------------------
  /// Adds `per_machine` closed-loop clients next to every machine, starting
  /// at `start_at`. Each client draws keys from its machine's partition of
  /// the key space and routes every command through the ShardRouter to the
  /// owning group.
  void add_clients(int per_machine, const kv::WorkloadConfig& wl,
                   Time start_at);
  void stop_clients() {
    for (auto& c : clients_) c->stop();
  }
  [[nodiscard]] uint64_t client_retries() const;

  // -- Trace hooks (chaos/invariant checking) ------------------------------
  // The replica Trace is set on group(g); the apply probe is forwarded here.
  using ApplyProbe = harness::ReplicaGroup::ApplyProbe;
  /// Client reply probe tagged with the group that owns the command's key
  /// (one probe observes every client).
  using ReplyProbe = std::function<void(int group, const kv::Command& cmd,
                                        uint64_t value, bool ok, Time sent_at,
                                        Time recv_at)>;

  void install_apply_probe(int g, ApplyProbe probe) {
    group(g).install_apply_probe(std::move(probe));
  }
  void install_reply_probe(ReplyProbe probe);

  // -- Run control ---------------------------------------------------------
  void run_until(Time t) { sim_.run_until(t); }
  void run_for(Duration d) { sim_.run_for(d); }
  sim::Simulator& sim() { return sim_; }
  sim::Network& net() { return net_; }
  harness::Metrics& metrics() { return metrics_; }

 private:
  [[nodiscard]] SiteId machine_site(int m) const {
    return static_cast<SiteId>(m % net_.latency().num_sites());
  }
  /// Every group's ReplicaGroup::down_stats, summed.
  [[nodiscard]] consensus::Stats down_stats() const;

  ShardedClusterConfig cfg_;
  sim::Simulator sim_;
  sim::Network net_;
  harness::Metrics metrics_;
  ShardMap map_;
  std::unique_ptr<ShardRouter> router_;
  std::vector<std::unique_ptr<sim::SerialResource>> machine_cpus_;
  std::vector<harness::ReplicaGroup> groups_;
  std::vector<std::unique_ptr<harness::NodeHost>> client_hosts_;
  std::vector<std::unique_ptr<harness::ClosedLoopClient>> clients_;
  harness::ClosedLoopClient::ReplyProbe reply_probe_;
};

}  // namespace praft::shard
