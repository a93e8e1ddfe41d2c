#pragma once

// The benchmark's view of a deployment: one face over harness::Cluster and
// shard::ShardedCluster, built only from their public APIs, so the run loop,
// the counters and the convergence check are written once.

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "harness/cluster.h"
#include "harness/log_server.h"
#include "mencius/server.h"
#include "shard/sharded_cluster.h"

namespace praft::pbench {

/// The protocol node behind a replica adapter (every adapter the workloads
/// build is a LogServer or a MenciusServer).
inline consensus::NodeIface& node_of(harness::ReplicaServer& s) {
  if (auto* ls = dynamic_cast<harness::LogServer*>(&s)) return ls->node_iface();
  auto* ms = dynamic_cast<mencius::MenciusServer*>(&s);
  PRAFT_CHECK_MSG(ms != nullptr, "unknown replica adapter");
  return ms->node();
}

using ApplyProbe =
    std::function<void(NodeId, consensus::LogIndex, const kv::Command&)>;

class World {
 public:
  virtual ~World() = default;

  virtual sim::Simulator& sim() = 0;
  virtual sim::Network& net() = 0;
  /// Replica servers by consensus group; nullptr while a replica is down.
  virtual std::vector<std::vector<harness::ReplicaServer*>> groups() = 0;
  /// Busy time each machine's CPU has accumulated.
  virtual std::vector<Duration> machine_cpu_busy() = 0;
  /// Leader member index of every group (-1 when it has none). Leaderless
  /// protocols report nothing.
  virtual std::vector<int> leaders() = 0;
  /// Observes every apply on every replica, restarted ones included.
  virtual void install_apply_probe(const ApplyProbe& probe) = 0;
  /// A new client endpoint at `site`.
  virtual harness::NodeHost& add_client_host(SiteId site) = 0;
  /// Clients are placed per partition of the key space: one per region
  /// (flat) or machine (sharded). The site each partition's clients sit at.
  virtual std::vector<SiteId> client_sites() = 0;
  /// Where attempt `attempt` (0 = first send) of `cmd`, issued by a client
  /// of partition `p`, is sent.
  virtual NodeId route(int p, const kv::Command& cmd, int attempt) = 0;
  /// Stable storage of every replica (empty when the replicas have none).
  virtual std::vector<storage::DurableStore*> stores() { return {}; }
  /// Counters of destroyed node incarnations (crash-restart).
  [[nodiscard]] virtual int64_t retired_rollbacks() const { return 0; }
  [[nodiscard]] virtual int64_t retired_revocations() const { return 0; }
};

class FlatWorld final : public World {
 public:
  explicit FlatWorld(harness::ClusterConfig cc) : cluster_(std::move(cc)) {}

  /// Call once the replicas are built: hosts outlive crashes, servers don't.
  /// `durable`: the replicas were built by protocol name and own stores.
  void note_built(bool durable) {
    for (int i = 0; i < cluster_.num_replicas(); ++i) {
      hosts_.push_back(&cluster_.server(i).host());
    }
    durable_ = durable;
    leaderless_ = cluster_.server(0).leaderless();
  }

  harness::Cluster& cluster() { return cluster_; }
  sim::Simulator& sim() override { return cluster_.sim(); }
  sim::Network& net() override { return cluster_.net(); }

  std::vector<std::vector<harness::ReplicaServer*>> groups() override {
    std::vector<harness::ReplicaServer*> g;
    for (int i = 0; i < cluster_.num_replicas(); ++i) {
      g.push_back(cluster_.replica_up(i) ? &cluster_.server(i) : nullptr);
    }
    return {g};
  }
  std::vector<Duration> machine_cpu_busy() override {
    std::vector<Duration> out;
    for (const auto* h : hosts_) out.push_back(h->cpu_busy());
    return out;
  }
  std::vector<int> leaders() override {
    if (leaderless_) return {};
    return {cluster_.leader_replica()};
  }
  void install_apply_probe(const ApplyProbe& probe) override {
    cluster_.install_apply_probe(probe);  // LogServers, also after restarts
    for (int i = 0; i < cluster_.num_replicas(); ++i) {
      if (!cluster_.replica_up(i)) continue;
      auto* ms = dynamic_cast<mencius::MenciusServer*>(&cluster_.server(i));
      if (ms != nullptr) ms->set_apply_probe(probe);
    }
  }
  harness::NodeHost& add_client_host(SiteId site) override {
    return cluster_.make_host(site);
  }
  std::vector<SiteId> client_sites() override {
    return cluster_.config().replica_sites;
  }
  /// Clients talk to their region's replica; each resend moves on to the
  /// next one, so a crashed replica costs an op one resend, not all.
  NodeId route(int p, const kv::Command&, int attempt) override {
    return cluster_.replica_id((p + attempt) % cluster_.num_replicas());
  }
  std::vector<storage::DurableStore*> stores() override {
    std::vector<storage::DurableStore*> out;
    for (int i = 0; durable_ && i < cluster_.num_replicas(); ++i) {
      out.push_back(&cluster_.store_of(i));
    }
    return out;
  }
  [[nodiscard]] int64_t retired_rollbacks() const override {
    return cluster_.retired_pipeline_rollbacks();
  }
  [[nodiscard]] int64_t retired_revocations() const override {
    return cluster_.retired_revocations();
  }

 private:
  harness::Cluster cluster_;
  std::vector<harness::NodeHost*> hosts_;
  bool durable_ = false;
  bool leaderless_ = false;
};

class ShardWorld final : public World {
 public:
  explicit ShardWorld(shard::ShardedClusterConfig cc)
      : cluster_(std::move(cc)) {}

  shard::ShardedCluster& cluster() { return cluster_; }
  sim::Simulator& sim() override { return cluster_.sim(); }
  sim::Network& net() override { return cluster_.net(); }

  std::vector<std::vector<harness::ReplicaServer*>> groups() override {
    std::vector<std::vector<harness::ReplicaServer*>> out;
    for (int g = 0; g < cluster_.num_groups(); ++g) {
      out.emplace_back();
      for (int j = 0; j < cluster_.replicas_per_group(); ++j) {
        out.back().push_back(cluster_.replica_up(g, j) ? &cluster_.server(g, j)
                                                       : nullptr);
      }
    }
    return out;
  }
  std::vector<Duration> machine_cpu_busy() override {
    // Co-located replicas share their machine's CPU: read it through any
    // one of them (a machine hosting none stays idle).
    std::vector<Duration> out(static_cast<size_t>(cluster_.num_machines()), 0);
    for (int g = 0; g < cluster_.num_groups(); ++g) {
      for (int j = 0; j < cluster_.replicas_per_group(); ++j) {
        out[static_cast<size_t>(cluster_.member_machine(g, j))] =
            cluster_.server(g, j).host().cpu_busy();
      }
    }
    return out;
  }
  std::vector<int> leaders() override {
    std::vector<int> out;
    for (int g = 0; g < cluster_.num_groups(); ++g) {
      out.push_back(cluster_.leader_of(g));
    }
    return out;
  }
  void install_apply_probe(const ApplyProbe& probe) override {
    for (int g = 0; g < cluster_.num_groups(); ++g) {
      cluster_.install_apply_probe(g, probe);
    }
  }
  harness::NodeHost& add_client_host(SiteId site) override {
    client_hosts_.push_back(std::make_unique<harness::NodeHost>(
        cluster_.sim(), cluster_.net(), site));
    return *client_hosts_.back();
  }
  std::vector<SiteId> client_sites() override {
    std::vector<SiteId> out;
    for (int m = 0; m < cluster_.num_machines(); ++m) {
      out.push_back(static_cast<SiteId>(m % net().latency().num_sites()));
    }
    return out;
  }
  /// Every op goes to its key's owning group, through the router.
  NodeId route(int, const kv::Command& cmd, int) override {
    return cluster_.router().target_of(cmd.key);
  }
  [[nodiscard]] int64_t retired_rollbacks() const override {
    return cluster_.retired_pipeline_rollbacks();
  }
  [[nodiscard]] int64_t retired_revocations() const override {
    return cluster_.retired_revocations();
  }

 private:
  shard::ShardedCluster cluster_;
  std::vector<std::unique_ptr<harness::NodeHost>> client_hosts_;
};

}  // namespace praft::pbench
