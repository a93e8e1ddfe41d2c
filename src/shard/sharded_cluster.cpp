#include "shard/sharded_cluster.h"

#include <algorithm>

#include "common/check.h"

namespace praft::shard {

ShardedCluster::ShardedCluster(ShardedClusterConfig cfg)
    : cfg_(std::move(cfg)), sim_(cfg_.seed), net_(sim_, cfg_.latency),
      map_(cfg_.num_groups) {
  PRAFT_CHECK(cfg_.num_groups > 0);
  PRAFT_CHECK(cfg_.num_machines > 0);
  PRAFT_CHECK_MSG(cfg_.replicas_per_group > 0 &&
                      cfg_.replicas_per_group <= cfg_.num_machines,
                  "each group member needs its own machine");
  PRAFT_CHECK(!cfg_.protocols.empty());
}

int ShardedCluster::member_machine(int g, int j) const {
  // Stride placement: consecutive members of one group land on machines a
  // stride apart, so a group's replica set spans the machine pool and
  // consecutive groups' preferred leaders (member 0) land on consecutive
  // machines. With M == R the spread set degenerates to "every machine
  // hosts every group" and the preferred leader of group g is machine
  // g mod M — the Mencius-style round-robin of the ISSUE. Co-located mode
  // drops the g offset: every group uses the same machines, all preferred
  // leaders pile onto machine 0 (the ablation baseline).
  const int m = cfg_.num_machines;
  const int stride = std::max(1, m / cfg_.replicas_per_group);
  const int base = cfg_.spread_leaders ? g : 0;
  return (base + j * stride) % m;
}

const std::string& ShardedCluster::protocol_of(int g) const {
  return cfg_.protocols[static_cast<size_t>(g) % cfg_.protocols.size()];
}

void ShardedCluster::build() {
  PRAFT_CHECK_MSG(groups_.empty(), "build called twice");
  for (int m = 0; m < cfg_.num_machines; ++m) {
    machine_cpus_.push_back(std::make_unique<sim::SerialResource>());
  }
  // First pass: every group's hosts, so member ids are known before any
  // server starts. Replicas co-located on one machine share that machine's
  // serial CPU (and its site for latency purposes) but keep distinct
  // network endpoints — one process per group per machine.
  groups_.reserve(static_cast<size_t>(cfg_.num_groups));
  for (int g = 0; g < cfg_.num_groups; ++g) {
    harness::ReplicaGroup& grp = groups_.emplace_back(sim_, net_, cfg_.costs);
    for (int j = 0; j < cfg_.replicas_per_group; ++j) {
      const int m = member_machine(g, j);
      grp.add_member(std::make_unique<harness::NodeHost>(
                         sim_, net_, machine_site(m), 0.0,
                         machine_cpus_[static_cast<size_t>(m)].get()),
                     m);
    }
  }
  for (int g = 0; g < cfg_.num_groups; ++g) {
    group(g).start(protocol_of(g), cfg_.timing);
  }
  // Client path: each group's contact is its preferred-leader replica
  // (member 0) under the placement policy.
  router_ = std::make_unique<ShardRouter>(map_);
  for (int g = 0; g < cfg_.num_groups; ++g) {
    router_->set_target(g, replica_id(g, 0));
  }
}

std::vector<harness::ReplicaGroup*> ShardedCluster::groups() {
  std::vector<harness::ReplicaGroup*> out;
  out.reserve(groups_.size());
  for (harness::ReplicaGroup& g : groups_) out.push_back(&g);
  return out;
}

int ShardedCluster::establish_leaders(Duration deadline) {
  PRAFT_CHECK_MSG(!groups_.empty(), "build before establish_leaders");
  const auto led = [this] {
    int n = 0;
    for (int g = 0; g < num_groups(); ++g) {
      if (!replica_up(g, 0)) continue;
      if (server(g, 0).leaderless() || leader_of(g) >= 0) ++n;
    }
    return n;
  };
  // Head start for every group's preferred leader, all in parallel — the
  // groups are independent, so N elections cost one election's wall time.
  for (int g = 0; g < num_groups(); ++g) {
    if (server(g, 0).leaderless()) continue;
    sim_.after(msec(1), [this, g] {
      if (replica_up(g, 0)) server(g, 0).trigger_election();
    });
  }
  const Time limit = sim_.now() + deadline;
  int have = led();
  while (have < num_groups() && sim_.now() < limit) {
    sim_.run_for(msec(50));
    have = led();
  }
  return have;
}

int64_t ShardedCluster::restarts() const {
  int64_t total = 0;
  for (const harness::ReplicaGroup& g : groups_) total += g.restarts();
  return total;
}

consensus::Stats ShardedCluster::down_stats() const {
  consensus::Stats sum;
  for (const harness::ReplicaGroup& g : groups_) sum += g.down_stats();
  return sum;
}

void ShardedCluster::add_clients(int per_machine, const kv::WorkloadConfig& wl,
                                 Time start_at) {
  PRAFT_CHECK_MSG(router_ != nullptr, "build before clients");
  kv::WorkloadConfig cfg = wl;
  // Keys are pre-partitioned per client machine (same discipline as the
  // single-group harness); the hash map then spreads each partition's keys
  // over every group, so all groups see traffic from all machines.
  cfg.num_partitions = cfg_.num_machines;
  for (int m = 0; m < cfg_.num_machines; ++m) {
    for (int c = 0; c < per_machine; ++c) {
      client_hosts_.push_back(
          std::make_unique<harness::NodeHost>(sim_, net_, machine_site(m)));
      kv::WorkloadGenerator gen(cfg, m, sim_.rng().split());
      harness::ClientOptions copt;
      copt.start_at = start_at;
      clients_.push_back(std::make_unique<harness::ClosedLoopClient>(
          *client_hosts_.back(),
          [router = router_.get()](const kv::Command& cmd) {
            return router->target_of(cmd.key);
          },
          std::move(gen), metrics_, copt));
      if (reply_probe_) clients_.back()->set_reply_probe(reply_probe_);
      clients_.back()->start();
    }
  }
}

uint64_t ShardedCluster::client_retries() const {
  uint64_t total = 0;
  for (const auto& c : clients_) total += c->retries();
  return total;
}

void ShardedCluster::install_reply_probe(ReplyProbe probe) {
  reply_probe_ = [this, probe = std::move(probe)](
                     const kv::Command& cmd, uint64_t value, bool ok,
                     Time sent_at, Time recv_at) {
    probe(map_.owner_of(cmd.key), cmd, value, ok, sent_at, recv_at);
  };
  for (auto& c : clients_) c->set_reply_probe(reply_probe_);
}

}  // namespace praft::shard
