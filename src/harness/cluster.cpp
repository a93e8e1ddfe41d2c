#include "harness/cluster.h"

#include "common/check.h"

namespace praft::harness {

Cluster::Cluster(ClusterConfig cfg)
    : cfg_(std::move(cfg)), sim_(cfg_.seed), net_(sim_, cfg_.latency),
      group_(sim_, net_, cfg_.costs) {
  PRAFT_CHECK(cfg_.num_replicas > 0);
  if (cfg_.replica_sites.empty()) {
    for (int i = 0; i < cfg_.num_replicas; ++i) {
      cfg_.replica_sites.push_back(
          static_cast<SiteId>(i % net_.latency().num_sites()));
    }
  }
  PRAFT_CHECK(static_cast<int>(cfg_.replica_sites.size()) == cfg_.num_replicas);
}

void Cluster::build_hosts() {
  PRAFT_CHECK_MSG(group_.size() == 0, "build_replicas called twice");
  for (int i = 0; i < cfg_.num_replicas; ++i) {
    const SiteId site = cfg_.replica_sites[static_cast<size_t>(i)];
    double egress = 0.0;
    if (static_cast<size_t>(site) < cfg_.replica_egress.size()) {
      egress = cfg_.replica_egress[static_cast<size_t>(site)];
    }
    group_.add_member(std::make_unique<NodeHost>(sim_, net_, site, egress), i);
  }
}

void Cluster::build_replicas(const ServerFactory& factory) {
  build_hosts();
  group_.start(factory);
}

void Cluster::build_replicas(const std::string& protocol,
                             const consensus::TimingOptions& timing) {
  build_hosts();
  group_.start(protocol, timing);
}

void Cluster::add_clients(int per_region, const kv::WorkloadConfig& wl,
                          Time start_at) {
  PRAFT_CHECK_MSG(group_.size() > 0, "build replicas before clients");
  kv::WorkloadConfig cfg = wl;
  cfg.num_partitions = cfg_.num_replicas;
  for (int r = 0; r < cfg_.num_replicas; ++r) {
    const SiteId site = cfg_.replica_sites[static_cast<size_t>(r)];
    const NodeId target = replica_id(r);
    for (int c = 0; c < per_region; ++c) {
      client_hosts_.push_back(std::make_unique<NodeHost>(sim_, net_, site));
      kv::WorkloadGenerator gen(cfg, r, sim_.rng().split());
      ClosedLoopClient::Options copt;
      copt.start_at = start_at;
      clients_.push_back(std::make_unique<ClosedLoopClient>(
          *client_hosts_.back(),
          [target](const kv::Command&) { return target; }, std::move(gen),
          metrics_, copt));
      if (reply_probe_) clients_.back()->set_reply_probe(reply_probe_);
      clients_.back()->start();
    }
  }
}

void Cluster::install_reply_probe(ClosedLoopClient::ReplyProbe probe) {
  reply_probe_ = std::move(probe);
  for (auto& c : clients_) c->set_reply_probe(reply_probe_);
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

uint64_t Cluster::client_retries() const {
  uint64_t total = 0;
  for (const auto& c : clients_) total += c->retries();
  return total;
}

}  // namespace praft::harness
