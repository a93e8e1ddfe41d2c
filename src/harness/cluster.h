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
#include "harness/log_server.h"
#include "harness/metrics.h"
#include "harness/replica_group.h"
#include "kv/workload.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "storage/wal.h"

namespace praft::harness {

/// World configuration for one simulated deployment (the paper's §5 testbed:
/// one replica per region, clients co-located with their regional replica).
struct ClusterConfig {
  int num_replicas = 5;
  std::vector<SiteId> replica_sites;  // default: replica i at site i
  sim::LatencyMatrix latency = sim::LatencyMatrix::aws5();
  /// Per-site egress bandwidth for REPLICA nodes, bytes/us (0 = unlimited).
  std::vector<double> replica_egress;
  CostModel costs;
  uint64_t seed = 1;
};

/// Builds and owns a full simulated deployment: simulator, network, one
/// replica group (replica i on machine i) and closed-loop clients. The
/// replica lifecycle lives in harness::ReplicaGroup; the calls below
/// forward to it.
class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg);

  using ServerFactory = ReplicaGroup::ServerFactory;

  /// Creates the replica nodes (ids 0..n-1) and starts their servers.
  void build_replicas(const ServerFactory& factory);

  /// Same, selecting the consensus protocol by registry name at runtime
  /// ("raft", "raftstar", "multipaxos", "mencius", or anything registered
  /// later) behind the generic LogServer adapter. Each replica's host gets a
  /// storage::DurableStore (NodeHost::make_store), which survives node
  /// destruction and is what crash_replica/restart_replica need.
  void build_replicas(const std::string& protocol,
                      const consensus::TimingOptions& timing = {});

  // -- Crash-restart (replicas whose host has a store; see ReplicaGroup) ---
  void crash_replica(int i) { group_.crash(i); }
  void restart_replica(int i) { group_.restart(i); }
  [[nodiscard]] bool replica_up(int i) const { return group_.up(i); }
  [[nodiscard]] NodeId replica_id(int i) const { return group_.id(i); }
  [[nodiscard]] storage::DurableStore& store_of(int i) {
    return group_.store(i);
  }
  [[nodiscard]] int64_t restarts() const { return group_.restarts(); }
  /// praft_bench's names: the counts of the replicas that are down right
  /// now, to which it adds each live replica's NodeIface counts.
  [[nodiscard]] int64_t retired_revocations() const {
    return group_.down_stats().revocations_started;
  }
  [[nodiscard]] int64_t retired_pipeline_rollbacks() const {
    return group_.down_stats().pipeline_rollbacks;
  }

  /// Adds `per_region` clients next to every replica, starting at `start_at`.
  void add_clients(int per_region, const kv::WorkloadConfig& wl, Time start_at);

  /// Creates an extra endpoint at `site` (tests drive hand-rolled clients).
  NodeHost& make_host(SiteId site) {
    client_hosts_.push_back(std::make_unique<NodeHost>(sim_, net_, site));
    return *client_hosts_.back();
  }

  /// Forces `preferred` to run for leadership and waits until it (or anyone)
  /// leads. Returns the leader replica index, or -1 on timeout.
  int establish_leader(int preferred, Duration deadline = sec(30));

  void run_until(Time t) { sim_.run_until(t); }
  void run_for(Duration d) { sim_.run_for(d); }

  /// Stops all clients (used by tests to let the cluster quiesce).
  void stop_clients() {
    for (auto& c : clients_) c->stop();
  }

  // -- Trace hooks (chaos/invariant checking) ------------------------------
  // The replica Trace is set on group(); the apply probe is forwarded here.
  using ApplyProbe = ReplicaGroup::ApplyProbe;
  int install_apply_probe(ApplyProbe probe) {
    return group_.install_apply_probe(std::move(probe));
  }

  /// Observes every client-visible (invocation, response) pair: installed on
  /// existing clients and on any client added later.
  void install_reply_probe(ClosedLoopClient::ReplyProbe probe);

  [[nodiscard]] int leader_replica() const { return group_.leader(); }

  sim::Simulator& sim() { return sim_; }
  sim::Network& net() { return net_; }
  Metrics& metrics() { return metrics_; }
  ReplicaGroup& group() { return group_; }
  [[nodiscard]] const ReplicaGroup& group() const { return group_; }
  LogServer& server(int i) { return group_.server(i); }
  [[nodiscard]] int num_replicas() const { return group_.size(); }
  [[nodiscard]] const consensus::Group& group_template() const {
    return group_.group_template();
  }
  [[nodiscard]] const ClusterConfig& config() const { return cfg_; }
  [[nodiscard]] uint64_t client_retries() const;

 private:
  void build_hosts();

  ClusterConfig cfg_;
  sim::Simulator sim_;
  sim::Network net_;
  Metrics metrics_;
  ReplicaGroup group_;
  std::vector<std::unique_ptr<NodeHost>> client_hosts_;
  std::vector<std::unique_ptr<ClosedLoopClient>> clients_;
  ClosedLoopClient::ReplyProbe reply_probe_;
};

}  // namespace praft::harness
