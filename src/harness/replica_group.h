#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "consensus/group.h"
#include "consensus/node_iface.h"
#include "consensus/stats.h"
#include "consensus/timing.h"
#include "consensus/trace.h"
#include "harness/cost_model.h"
#include "harness/host.h"
#include "harness/log_server.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "storage/wal.h"

namespace praft::harness {

/// One consensus group and its whole replica lifecycle: hosts, servers,
/// durable stores, the group template and the apply probe.
/// harness::Cluster owns one; shard::ShardedCluster owns one per group.
/// Each member also records the machine it runs on, so machine-level
/// faults address a flat cluster (machine m hosts replica m) and a sharded
/// one the same way.
class ReplicaGroup {
 public:
  ReplicaGroup(sim::Simulator& sim, sim::Network& net, CostModel costs)
      : sim_(sim), net_(net), costs_(costs) {}

  using ServerFactory = std::function<std::unique_ptr<LogServer>(
      NodeHost& host, const consensus::Group& group)>;

  /// Adds member `size()` on `host`, placed on `machine`. Add every member
  /// before starting any, so each replica knows all member ids.
  void add_member(std::unique_ptr<NodeHost> host, int machine);

  /// Builds every member's server with `factory` and starts it.
  void start(const ServerFactory& factory);
  /// Same, selecting the protocol by registry name behind the generic
  /// LogServer. Each member gets a storage::DurableStore owned here (so it
  /// survives node destruction), which is what crash/restart need.
  void start(const std::string& protocol,
             const consensus::TimingOptions& timing);

  // -- Crash-restart (name-started groups only) -----------------------------
  /// Destroys member `j`'s server and protocol node NOW: scheduled callbacks
  /// are invalidated, in-flight deliveries drop, and every staged write that
  /// no completed fsync covered is lost — exactly a power cut. The durable
  /// store survives. A no-op while `j` is already down.
  void crash(int j);
  /// Rebuilds member `j` purely from its durable image (hard state +
  /// snapshot + WAL replay) and starts it. Crashes it first if still up.
  /// The recovery itself is untraced: the host's Trace sees the rebuilt
  /// node from start() on, then Trace::on_restart.
  void restart(int j);

  [[nodiscard]] int size() const { return static_cast<int>(hosts_.size()); }
  /// False while a member is crashed (between crash and restart).
  [[nodiscard]] bool up(int j) const {
    return servers_[static_cast<size_t>(j)] != nullptr;
  }
  /// Stable node id of member `j` (valid even while it is down).
  [[nodiscard]] NodeId id(int j) const {
    return hosts_[static_cast<size_t>(j)]->id();
  }
  [[nodiscard]] int machine_of(int j) const {
    return machines_[static_cast<size_t>(j)];
  }
  /// The member placed on machine `m`, or -1 when the group has none there.
  [[nodiscard]] int member_on(int m) const;
  /// Member `j`'s server; valid only while up(j).
  [[nodiscard]] LogServer& server(int j) {
    return *servers_[static_cast<size_t>(j)];
  }
  [[nodiscard]] const LogServer& server(int j) const {
    return *servers_[static_cast<size_t>(j)];
  }
  [[nodiscard]] storage::DurableStore& store(int j) {
    return *stores_[static_cast<size_t>(j)];
  }
  [[nodiscard]] const consensus::Group& group_template() const {
    return group_template_;
  }

  /// Member index currently leading, or -1. A crashed or fault-cut member
  /// may still believe it leads; it does not count.
  [[nodiscard]] int leader() const;

  // -- Observation ----------------------------------------------------------
  /// Points every member's host at `trace` (null: untraced). The host
  /// outlives crash-restarts, so this one call reaches every incarnation.
  void set_trace(consensus::Trace* trace);

  /// Observes every (replica, index, command) apply. Stored and re-applied
  /// to each restarted incarnation; returns how many live members it hooked.
  using ApplyProbe =
      std::function<void(NodeId, consensus::LogIndex, const kv::Command&)>;
  int install_apply_probe(ApplyProbe probe);

  // -- Counters -------------------------------------------------------------
  [[nodiscard]] int64_t restarts() const { return restarts_; }
  /// Every member's consensus::Stats, summed. A member's block lives on its
  /// host, which a crash-restart keeps, so this covers every incarnation
  /// and a crash changes nothing in it.
  [[nodiscard]] consensus::Stats stats() const;
  /// The same sum over the members that are down right now.
  [[nodiscard]] consensus::Stats down_stats() const;

 private:
  std::unique_ptr<LogServer> make_named_server(int j);

  sim::Simulator& sim_;
  sim::Network& net_;
  CostModel costs_;
  consensus::Group group_template_;  // self = kNoNode; members = node ids
  std::vector<std::unique_ptr<NodeHost>> hosts_;
  std::vector<int> machines_;
  std::vector<std::unique_ptr<LogServer>> servers_;
  std::vector<std::unique_ptr<storage::DurableStore>> stores_;

  // Name-started configuration, retained so restart can rebuild.
  std::string protocol_;
  consensus::TimingOptions timing_;
  ApplyProbe apply_probe_;
  int64_t restarts_ = 0;
};

/// Machine-level lifecycle over groups whose members record their machine:
/// every replica endpoint on machine `m` (valid while crashed, too), a power
/// cut of every replica it hosts, and a rebuild of every one that is down.
std::vector<NodeId> machine_node_ids(const std::vector<ReplicaGroup*>& groups,
                                     int m);
void crash_machine(const std::vector<ReplicaGroup*>& groups, int m);
void restart_machine(const std::vector<ReplicaGroup*>& groups, int m);

}  // namespace praft::harness
