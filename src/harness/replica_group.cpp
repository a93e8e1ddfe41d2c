#include "harness/replica_group.h"

#include "common/check.h"

namespace praft::harness {

void ReplicaGroup::add_member(std::unique_ptr<NodeHost> host, int machine) {
  PRAFT_CHECK_MSG(servers_.empty(), "add every member before start");
  group_template_.members.push_back(host->id());
  group_template_.self = kNoNode;
  hosts_.push_back(std::move(host));
  machines_.push_back(machine);
}

void ReplicaGroup::start(ServerFactory factory) {
  PRAFT_CHECK_MSG(servers_.empty(), "group started twice");
  factory_ = std::move(factory);
  for (int j = 0; j < size(); ++j) {
    servers_.push_back(build(j));
    servers_.back()->start();
  }
}

void ReplicaGroup::start(const std::string& protocol,
                         const consensus::TimingOptions& timing) {
  // An unknown name fails inside consensus::make_node with a message
  // listing the registered protocols (no duplicate pre-check here).
  for (const auto& host : hosts_) host->make_store();
  start([costs = costs_, protocol, timing](NodeHost& host,
                                           const consensus::Group& g) {
    return std::make_unique<LogServer>(host, g, costs, protocol, timing);
  });
}

std::unique_ptr<LogServer> ReplicaGroup::build(int j) {
  consensus::Group g = group_template_;
  g.self = id(j);
  return factory_(*hosts_[static_cast<size_t>(j)], g);
}

storage::DurableStore& ReplicaGroup::store(int j) {
  storage::DurableStore* disk = hosts_[static_cast<size_t>(j)]->store();
  PRAFT_CHECK_MSG(disk != nullptr, "member's host has no durable store");
  return *disk;
}

int ReplicaGroup::member_on(int m) const {
  for (int j = 0; j < size(); ++j) {
    if (machine_of(j) == m) return j;
  }
  return -1;
}

void ReplicaGroup::crash(int j) {
  PRAFT_CHECK(j >= 0 && j < size());
  storage::DurableStore& disk = store(j);
  if (!up(j)) return;
  NodeHost& host = *hosts_[static_cast<size_t>(j)];
  // Order matters: first make every pending timer/fsync callback a no-op and
  // unbind in-flight deliveries, THEN free the node they capture.
  host.invalidate_scheduled();
  host.detach();
  servers_[static_cast<size_t>(j)].reset();
  // A power cut loses every staged write no completed fsync covered.
  disk.drop_unsynced();
}

void ReplicaGroup::restart(int j) {
  PRAFT_CHECK(j >= 0 && j < size());
  if (up(j)) crash(j);
  NodeHost& host = *hosts_[static_cast<size_t>(j)];
  // Recovery replays the durable image through the same Applier and restore
  // hook as live traffic, so the trace is detached while it runs: the trace
  // sees the rebuilt node from start() on, and on_restart reports what the
  // recovery did.
  consensus::Trace* trace = host.trace();
  host.set_trace(nullptr);
  servers_[static_cast<size_t>(j)] = build(j);
  host.set_trace(trace);
  LogServer& ls = server(j);
  if (apply_probe_) ls.set_apply_probe(apply_probe_);
  ls.start();
  ++restarts_;
  if (trace != nullptr) {
    trace->on_restart(ls.id(), ls.node_iface().hard_state(), ls.recovery(),
                      ls.node_iface().applied_index());
  }
}

int ReplicaGroup::leader() const {
  for (int j = 0; j < size(); ++j) {
    if (!up(j)) continue;  // crashed, awaiting restart
    const NodeId node = id(j);
    if (net_.faults().is_down(node, sim_.now())) continue;
    if (server(j).is_leader()) return j;
  }
  return -1;
}

void ReplicaGroup::set_trace(consensus::Trace* trace) {
  for (const auto& host : hosts_) host->set_trace(trace);
}

int ReplicaGroup::install_apply_probe(ApplyProbe probe) {
  apply_probe_ = std::move(probe);
  int hooked = 0;
  for (int j = 0; j < size(); ++j) {
    if (!up(j)) continue;
    server(j).set_apply_probe(apply_probe_);
    ++hooked;
  }
  return hooked;
}

consensus::Stats ReplicaGroup::stats() const {
  consensus::Stats sum;
  for (const auto& host : hosts_) sum += host->stats();
  return sum;
}

consensus::Stats ReplicaGroup::down_stats() const {
  consensus::Stats sum;
  for (int j = 0; j < size(); ++j) {
    if (!up(j)) sum += hosts_[static_cast<size_t>(j)]->stats();
  }
  return sum;
}

std::vector<NodeId> machine_node_ids(const std::vector<ReplicaGroup*>& groups,
                                     int m) {
  std::vector<NodeId> ids;
  for (const ReplicaGroup* g : groups) {
    if (const int j = g->member_on(m); j >= 0) ids.push_back(g->id(j));
  }
  return ids;
}

void crash_machine(const std::vector<ReplicaGroup*>& groups, int m) {
  for (ReplicaGroup* g : groups) {
    if (const int j = g->member_on(m); j >= 0) g->crash(j);
  }
}

void restart_machine(const std::vector<ReplicaGroup*>& groups, int m) {
  for (ReplicaGroup* g : groups) {
    if (const int j = g->member_on(m); j >= 0 && !g->up(j)) g->restart(j);
  }
}

}  // namespace praft::harness
