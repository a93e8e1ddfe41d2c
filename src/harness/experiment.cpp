#include "harness/experiment.h"

#include "common/check.h"
#include "harness/log_server.h"
#include "mencius/server.h"
#include "pql/leader_lease.h"
#include "pql/raftstar_pql.h"
#include "sim/resources.h"

namespace praft::harness {

const char* system_name(SystemKind k) {
  switch (k) {
    case SystemKind::kRaft: return "Raft";
    case SystemKind::kRaftStar: return "Raft*";
    case SystemKind::kPaxos: return "MultiPaxos";
    case SystemKind::kRaftStarPql: return "Raft*-PQL";
    case SystemKind::kRaftStarLL: return "Raft*-LL";
    case SystemKind::kRaftStarMencius: return "Raft*-Mencius";
  }
  return "?";
}

LatencySummary summarize(const Histogram& h) {
  LatencySummary s;
  s.count = h.count();
  s.p50 = h.percentile(50);
  s.p90 = h.percentile(90);
  s.p99 = h.percentile(99);
  return s;
}

namespace {

/// The registry protocol a run builds by name: `protocol` when set, else the
/// log-only system's own; "" for the systems whose adapter adds an
/// optimization (PQL, LL, Mencius early ack).
std::string registry_name(const ExperimentConfig& cfg) {
  if (!cfg.protocol.empty()) return cfg.protocol;
  switch (cfg.system) {
    case SystemKind::kRaft: return "raft";
    case SystemKind::kRaftStar: return "raftstar";
    case SystemKind::kPaxos: return "multipaxos";
    default: return "";
  }
}

// Protocol Options default-construct to the paper's WAN-scale timing
// (consensus::TimingOptions), so factories pass no explicit options.
Cluster::ServerFactory make_server_factory(const ExperimentConfig& cfg,
                                           const CostModel& costs) {
  if (const std::string protocol = registry_name(cfg); !protocol.empty()) {
    // Runtime selection through the protocol registry.
    const consensus::TimingOptions timing = cfg.timing;
    return [costs, protocol, timing](NodeHost& h, const consensus::Group& g) {
      return std::make_unique<LogServer>(h, g, costs, protocol, timing);
    };
  }
  switch (cfg.system) {
    case SystemKind::kRaftStarPql:
      // Default PqlOptions: the PQL paper's 2 s leases, renewed every 0.5 s
      // (§5.1).
      return [costs](NodeHost& h, const consensus::Group& g) {
        return std::make_unique<pql::RaftStarPqlServer>(h, g, costs);
      };
    case SystemKind::kRaftStarLL:
      return [costs](NodeHost& h, const consensus::Group& g) {
        return std::make_unique<pql::LeaderLeaseServer>(h, g, costs);
      };
    case SystemKind::kRaftStarMencius:
      return [costs](NodeHost& h, const consensus::Group& g) {
        return std::make_unique<mencius::MenciusServer>(h, g, costs);
      };
    default:
      break;
  }
  PRAFT_CHECK_MSG(false, "unknown system");
  return {};
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  ClusterConfig cc;
  cc.seed = cfg.seed;
  cc.costs.enabled = cfg.model_cpu;
  if (cfg.flat_rtt >= 0) {
    cc.latency = sim::LatencyMatrix(5, cfg.flat_rtt);
  }
  if (cfg.model_bandwidth) {
    // Per-site NIC egress (DESIGN.md §6): Oregon has the paper's 750 Mbps;
    // Seoul the weakest uplink (drives Raft-Oregon ≈ +30% over Raft-Seoul).
    const double mbps[5] = {750, 700, 650, 700, 560};
    for (double m : mbps) {
      cc.replica_egress.push_back(sim::EgressLink::mbps_to_bytes_per_us(m));
    }
  }
  Cluster cluster(cc);
  cluster.build_replicas(make_server_factory(cfg, cc.costs));

  if (!cluster.server(0).leaderless()) {
    const int leader = cluster.establish_leader(cfg.leader_replica);
    PRAFT_CHECK_MSG(leader == cfg.leader_replica,
                    "could not establish the requested leader");
  } else {
    cluster.run_for(msec(500));  // let status beats flow
  }

  const Time t0 = cluster.sim().now();
  cluster.metrics().set_window(t0 + cfg.warmup, t0 + cfg.warmup + cfg.run);
  cluster.add_clients(cfg.clients_per_region, cfg.workload, t0);
  cluster.run_until(t0 + cfg.warmup + cfg.run + cfg.cooldown);

  ExperimentResult res;
  res.leader_replica = cfg.leader_replica;
  res.throughput_ops = cluster.metrics().throughput_ops();
  res.client_retries = cluster.client_retries();
  const SiteId leader_site =
      cluster.config().replica_sites[static_cast<size_t>(cfg.leader_replica)];
  std::vector<SiteId> follower_sites;
  for (SiteId s = 0; s < cluster.config().latency.num_sites(); ++s) {
    if (s != leader_site) follower_sites.push_back(s);
  }
  res.leader_reads = summarize(cluster.metrics().reads(leader_site));
  res.leader_writes = summarize(cluster.metrics().writes(leader_site));
  res.follower_reads = summarize(cluster.metrics().merged_reads(follower_sites));
  res.follower_writes =
      summarize(cluster.metrics().merged_writes(follower_sites));
  return res;
}

}  // namespace praft::harness
