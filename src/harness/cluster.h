#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "consensus/group.h"
#include "consensus/stats.h"
#include "consensus/timing.h"
#include "harness/client.h"
#include "harness/cost_model.h"
#include "harness/host.h"
#include "harness/log_server.h"
#include "harness/metrics.h"
#include "harness/replica_group.h"
#include "kv/workload.h"
#include "shard/shard_map.h"
#include "sim/network.h"
#include "sim/resources.h"
#include "sim/simulator.h"
#include "storage/wal.h"

namespace praft::harness {

/// World configuration for one simulated deployment: `num_groups` consensus
/// groups of `num_replicas` members each, placed over `num_machines`
/// machines. The defaults are the paper's §5 testbed: one group, one
/// machine (and region) per replica, clients co-located with their
/// regional replica.
struct ClusterConfig {
  int num_replicas = 5;  // members per group
  /// Each group owns a hash partition of the key space (shard::ShardMap).
  int num_groups = 1;
  /// 0 = one machine per member. A machine hosts at most one member of each
  /// group, and every member placed on it bills the machine's one serial
  /// CPU, so co-located replicas contend for cycles.
  int num_machines = 0;
  /// Placement. Spread: group g's member j sits on machine
  /// (g + j*stride) mod M, stride = max(1, M / num_replicas), so
  /// consecutive groups' member 0s (their preferred leaders) land on
  /// consecutive machines. Co-located (the ablation baseline): every group
  /// sits on group 0's machines, so every preferred leader is machine 0.
  bool spread_leaders = true;
  /// Site of each machine. Default: machine m at site m mod the matrix's
  /// sites, which with one machine per member puts replica i at site i.
  std::vector<SiteId> replica_sites;
  sim::LatencyMatrix latency = sim::LatencyMatrix::aws5();
  /// Per-site NIC egress of the replicas placed there, bytes/us
  /// (0 = unlimited).
  std::vector<double> replica_egress;
  CostModel costs;
  uint64_t seed = 1;
};

/// Builds and owns a full simulated deployment: simulator, network, one
/// serial CPU per machine, every consensus group (a harness::ReplicaGroup,
/// which owns the replica lifecycle) and closed-loop clients. The calls
/// without a group index address group 0, the whole deployment in the flat
/// §5 case.
class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg);

  using ServerFactory = ReplicaGroup::ServerFactory;

  /// Creates every group's replica hosts (all of them first, so member ids
  /// are known) and starts each group's servers through `factory`.
  void build_replicas(const ServerFactory& factory);

  /// Same, selecting the consensus protocol by registry name at runtime
  /// ("raft", "raftstar", "multipaxos" or "mencius") behind the generic
  /// LogServer adapter. Each replica's host gets a storage::DurableStore
  /// (NodeHost::make_store), which survives node destruction and is what
  /// crash/restart need.
  void build_replicas(const std::string& protocol,
                      const consensus::TimingOptions& timing = {});

  // -- Topology -------------------------------------------------------------
  [[nodiscard]] int num_groups() const { return cfg_.num_groups; }
  [[nodiscard]] int num_machines() const { return cfg_.num_machines; }
  /// Members per group.
  [[nodiscard]] int num_replicas() const { return cfg_.num_replicas; }
  /// Machine hosting member `j` of group `g` (the placement policy).
  [[nodiscard]] int member_machine(int g, int j) const;
  [[nodiscard]] ReplicaGroup& group(int g = 0) {
    return groups_[static_cast<size_t>(g)];
  }
  [[nodiscard]] const ReplicaGroup& group(int g = 0) const {
    return groups_[static_cast<size_t>(g)];
  }
  /// Every group, in group order (the machine-level helpers' input).
  [[nodiscard]] std::vector<ReplicaGroup*> groups();
  [[nodiscard]] const consensus::Group& group_template() const {
    return group().group_template();
  }

  // -- Replicas -------------------------------------------------------------
  LogServer& server(int j) { return group().server(j); }
  LogServer& server(int g, int j) { return group(g).server(j); }
  [[nodiscard]] bool replica_up(int j) const { return group().up(j); }
  [[nodiscard]] bool replica_up(int g, int j) const { return group(g).up(j); }
  [[nodiscard]] NodeId replica_id(int j) const { return group().id(j); }
  [[nodiscard]] NodeId replica_id(int g, int j) const {
    return group(g).id(j);
  }
  [[nodiscard]] storage::DurableStore& store_of(int j) {
    return group().store(j);
  }
  /// Member index currently leading group `g` (net-visible replicas only),
  /// or -1.
  [[nodiscard]] int leader_of(int g) const { return group(g).leader(); }
  [[nodiscard]] int leader_replica() const { return leader_of(0); }

  /// Forces `preferred` to run for leadership and waits until it (or anyone)
  /// leads group 0. Returns the leader replica index, or -1 on timeout.
  int establish_leader(int preferred, Duration deadline = sec(30));
  /// Triggers each group's member 0 (its preferred leader) and waits until
  /// every group with an elected-leader protocol leads. Returns how many
  /// groups have a leader at return (== num_groups() on success; leaderless
  /// protocols count as led).
  int establish_leaders(Duration deadline = sec(30));

  // -- Crash-restart (replicas whose host has a store; see ReplicaGroup) ---
  void crash_replica(int j) { group().crash(j); }
  void restart_replica(int j) { group().restart(j); }
  /// Power-cuts machine `m`: every replica it hosts is destroyed (scheduled
  /// callbacks invalidated, unsynced durable writes dropped). Replicas
  /// elsewhere keep running.
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

  // -- Clients --------------------------------------------------------------
  /// Adds `per_machine` closed-loop clients next to every machine, starting
  /// at `start_at`; each draws keys from its machine's partition of the key
  /// space. With one group that has a member on every machine (the §5
  /// testbed) a client sends to the member on its own machine; otherwise to
  /// member 0 of the group that owns the command's key.
  void add_clients(int per_machine, const kv::WorkloadConfig& wl,
                   Time start_at);

  /// Creates an extra endpoint at `site` (tests drive hand-rolled clients).
  NodeHost& make_host(SiteId site) {
    client_hosts_.push_back(std::make_unique<NodeHost>(sim_, net_, site));
    return *client_hosts_.back();
  }

  /// Stops all clients (used by tests to let the cluster quiesce).
  void stop_clients() {
    for (auto& c : clients_) c->stop();
  }

  // -- Trace hooks (chaos/invariant checking) ------------------------------
  // The replica Trace is set on group(g); the apply probe is forwarded here.
  using ApplyProbe = ReplicaGroup::ApplyProbe;
  int install_apply_probe(int g, ApplyProbe probe) {
    return group(g).install_apply_probe(std::move(probe));
  }
  int install_apply_probe(ApplyProbe probe) {
    return install_apply_probe(0, std::move(probe));
  }

  /// Observes every client-visible (invocation, response) pair, tagged with
  /// the group that owns the command's key: installed on existing clients
  /// and on any client added later.
  using ReplyProbe = std::function<void(int group, const kv::Command& cmd,
                                        uint64_t value, bool ok, Time sent_at,
                                        Time recv_at)>;
  void install_reply_probe(ReplyProbe probe);

  // -- Run control ----------------------------------------------------------
  void run_until(Time t) { sim_.run_until(t); }
  void run_for(Duration d) { sim_.run_for(d); }
  sim::Simulator& sim() { return sim_; }
  sim::Network& net() { return net_; }
  Metrics& metrics() { return metrics_; }
  [[nodiscard]] const ClusterConfig& config() const { return cfg_; }

 private:
  void build_hosts();
  /// Every group's ReplicaGroup::down_stats, summed.
  [[nodiscard]] consensus::Stats down_stats() const;

  ClusterConfig cfg_;
  sim::Simulator sim_;
  sim::Network net_;
  Metrics metrics_;
  shard::ShardMap map_;
  // Both sized once, in the constructor: hosts point at their machine's CPU
  // and callers hold on to groups.
  std::vector<sim::SerialResource> machine_cpus_;
  std::vector<ReplicaGroup> groups_;
  std::vector<std::unique_ptr<NodeHost>> client_hosts_;
  std::vector<std::unique_ptr<ClosedLoopClient>> clients_;
  ClosedLoopClient::ReplyProbe reply_probe_;
};

}  // namespace praft::harness
