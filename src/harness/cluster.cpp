#include "harness/cluster.h"

#include <algorithm>

#include "common/check.h"

namespace praft::harness {

Cluster::Cluster(ClusterConfig cfg)
    : cfg_(std::move(cfg)), sim_(cfg_.seed), net_(sim_, cfg_.latency),
      map_(cfg_.num_groups) {
  if (cfg_.num_machines == 0) cfg_.num_machines = cfg_.num_replicas;
  PRAFT_CHECK_MSG(cfg_.num_replicas > 0 &&
                      cfg_.num_replicas <= cfg_.num_machines,
                  "each group member needs its own machine");
  if (cfg_.replica_sites.empty()) {
    for (int m = 0; m < cfg_.num_machines; ++m) {
      cfg_.replica_sites.push_back(
          static_cast<SiteId>(m % net_.latency().num_sites()));
    }
  }
  PRAFT_CHECK(static_cast<int>(cfg_.replica_sites.size()) ==
              cfg_.num_machines);
  machine_cpus_.resize(static_cast<size_t>(cfg_.num_machines));
  groups_.reserve(static_cast<size_t>(cfg_.num_groups));
  for (int g = 0; g < cfg_.num_groups; ++g) {
    groups_.emplace_back(sim_, net_, cfg_.costs);
  }
}

int Cluster::member_machine(int g, int j) const {
  // Stride placement: consecutive members of one group land on machines a
  // stride apart, so a group's replica set spans the machine pool and
  // consecutive groups' preferred leaders (member 0) land on consecutive
  // machines. With M == R the spread set degenerates to "every machine
  // hosts every group" and the preferred leader of group g is machine
  // g mod M, a Mencius-style round robin at group granularity.
  const int m = cfg_.num_machines;
  const int stride = std::max(1, m / cfg_.num_replicas);
  const int base = cfg_.spread_leaders ? g : 0;
  return (base + j * stride) % m;
}

std::vector<ReplicaGroup*> Cluster::groups() {
  std::vector<ReplicaGroup*> out;
  out.reserve(groups_.size());
  for (ReplicaGroup& g : groups_) out.push_back(&g);
  return out;
}

void Cluster::build_hosts() {
  PRAFT_CHECK_MSG(group().size() == 0, "build_replicas called twice");
  // Replicas co-located on one machine share its serial CPU and its site but
  // keep distinct network endpoints: one process per group per machine.
  for (int g = 0; g < num_groups(); ++g) {
    for (int j = 0; j < num_replicas(); ++j) {
      const int m = member_machine(g, j);
      const SiteId site = cfg_.replica_sites[static_cast<size_t>(m)];
      double egress = 0.0;
      if (static_cast<size_t>(site) < cfg_.replica_egress.size()) {
        egress = cfg_.replica_egress[static_cast<size_t>(site)];
      }
      group(g).add_member(
          std::make_unique<NodeHost>(sim_, net_, site, egress,
                                     &machine_cpus_[static_cast<size_t>(m)]),
          m);
    }
  }
}

void Cluster::build_replicas(const ServerFactory& factory) {
  build_hosts();
  for (ReplicaGroup& g : groups_) g.start(factory);
}

void Cluster::build_replicas(const std::string& protocol,
                             const consensus::TimingOptions& timing) {
  build_hosts();
  for (ReplicaGroup& g : groups_) g.start(protocol, timing);
}

int Cluster::establish_leader(int preferred, Duration deadline) {
  PRAFT_CHECK(preferred >= 0 && preferred < num_replicas());
  // Give the preferred replica a head start on everyone's election timers.
  sim_.after(msec(1), [this, preferred] {
    if (replica_up(preferred)) server(preferred).trigger_election();
  });
  const Time limit = sim_.now() + deadline;
  while (sim_.now() < limit) {
    sim_.run_for(msec(50));
    const int leader = leader_replica();
    if (leader >= 0) return leader;
  }
  return -1;
}

int Cluster::establish_leaders(Duration deadline) {
  PRAFT_CHECK_MSG(group().size() > 0, "build before establish_leaders");
  const auto led = [this] {
    int n = 0;
    for (int g = 0; g < num_groups(); ++g) {
      if (!replica_up(g, 0)) continue;
      if (server(g, 0).leaderless() || leader_of(g) >= 0) ++n;
    }
    return n;
  };
  // Head start for every group's preferred leader, all in parallel: the
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

int64_t Cluster::restarts() const {
  int64_t total = 0;
  for (const ReplicaGroup& g : groups_) total += g.restarts();
  return total;
}

consensus::Stats Cluster::down_stats() const {
  consensus::Stats sum;
  for (const ReplicaGroup& g : groups_) sum += g.down_stats();
  return sum;
}

void Cluster::add_clients(int per_machine, const kv::WorkloadConfig& wl,
                          Time start_at) {
  PRAFT_CHECK_MSG(group().size() > 0, "build replicas before clients");
  kv::WorkloadConfig cfg = wl;
  // Keys are pre-partitioned per client machine; with several groups the
  // hash map then spreads each partition's keys over every group, so all
  // groups see traffic from all machines.
  cfg.num_partitions = num_machines();
  const bool local = num_groups() == 1 && num_machines() == num_replicas();
  for (int m = 0; m < num_machines(); ++m) {
    ClosedLoopClient::Route route;
    if (local) {
      route = [target = replica_id(group().member_on(m))](const kv::Command&) {
        return target;
      };
    } else {
      // Member 0 is the preferred leader; when it does not lead it forwards
      // to the one that does.
      route = [this](const kv::Command& cmd) {
        return replica_id(map_.owner_of(cmd.key), 0);
      };
    }
    for (int c = 0; c < per_machine; ++c) {
      client_hosts_.push_back(std::make_unique<NodeHost>(
          sim_, net_, cfg_.replica_sites[static_cast<size_t>(m)]));
      kv::WorkloadGenerator gen(cfg, m, sim_.rng().split());
      ClientOptions copt;
      copt.start_at = start_at;
      clients_.push_back(std::make_unique<ClosedLoopClient>(
          *client_hosts_.back(), route, std::move(gen), metrics_, copt));
      if (reply_probe_) clients_.back()->set_reply_probe(reply_probe_);
      clients_.back()->start();
    }
  }
}

uint64_t Cluster::client_retries() const {
  uint64_t total = 0;
  for (const auto& c : clients_) total += c->retries();
  return total;
}

void Cluster::install_reply_probe(ReplyProbe probe) {
  reply_probe_ = [this, probe = std::move(probe)](
                     const kv::Command& cmd, uint64_t value, bool ok,
                     Time sent_at, Time recv_at) {
    probe(map_.owner_of(cmd.key), cmd, value, ok, sent_at, recv_at);
  };
  for (auto& c : clients_) c->set_reply_probe(reply_probe_);
}

}  // namespace praft::harness
