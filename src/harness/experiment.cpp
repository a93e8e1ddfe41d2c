#include "harness/experiment.h"

#include "common/check.h"
#include "harness/log_server.h"
#include "mencius/server.h"
#include "pql/leader_lease.h"
#include "pql/raftstar_pql.h"

namespace praft::harness {

const char* system_name(SystemKind k) {
  switch (k) {
    case SystemKind::kRaft: return "Raft";
    case SystemKind::kRaftStar: return "Raft*";
    case SystemKind::kPaxos: return "MultiPaxos";
    case SystemKind::kMencius: return "Mencius";
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

/// The table protocol a log-only system builds by name; nullptr for the
/// systems whose adapter adds an optimization (PQL, LL, Mencius early ack).
const char* registry_name(SystemKind k) {
  switch (k) {
    case SystemKind::kRaft: return "raft";
    case SystemKind::kRaftStar: return "raftstar";
    case SystemKind::kPaxos: return "multipaxos";
    case SystemKind::kMencius: return "mencius";
    default: return nullptr;
  }
}

// Protocol Options default-construct to the paper's WAN-scale timing
// (consensus::TimingOptions), so factories pass no explicit options.
Cluster::ServerFactory adapter_factory(SystemKind k, const CostModel& costs) {
  switch (k) {
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
  Cluster cluster(cfg.cluster);
  if (const char* protocol = registry_name(cfg.system)) {
    cluster.build_replicas(protocol, cfg.timing);
  } else {
    cluster.build_replicas(adapter_factory(cfg.system, cfg.cluster.costs));
  }

  if (cluster.server(0).leaderless()) {
    cluster.run_for(msec(500));  // let status beats flow
  } else if (cluster.num_groups() == 1) {
    const int leader = cluster.establish_leader(cfg.leader_replica);
    PRAFT_CHECK_MSG(leader == cfg.leader_replica,
                    "could not establish the requested leader");
  } else {
    const int led = cluster.establish_leaders();
    PRAFT_CHECK_MSG(led == cluster.num_groups(),
                    "not every group elected a leader");
  }

  const Time t0 = cluster.sim().now();
  cluster.metrics().set_window(t0 + cfg.warmup, t0 + cfg.warmup + cfg.run);
  cluster.add_clients(cfg.clients_per_region, cfg.workload, t0);
  cluster.run_until(t0 + cfg.warmup + cfg.run + cfg.cooldown);

  ExperimentResult res;
  res.throughput_ops = cluster.metrics().throughput_ops();
  const SiteId leader_site = cluster.config().replica_sites[static_cast<size_t>(
      cluster.group().machine_of(cfg.leader_replica))];
  std::vector<SiteId> all_sites, follower_sites;
  for (SiteId s = 0; s < cluster.config().latency.num_sites(); ++s) {
    all_sites.push_back(s);
    if (s != leader_site) follower_sites.push_back(s);
  }
  const Metrics& m = cluster.metrics();
  res.reads = summarize(m.merged_reads(all_sites));
  res.writes = summarize(m.merged_writes(all_sites));
  res.leader_reads = summarize(m.reads(leader_site));
  res.leader_writes = summarize(m.writes(leader_site));
  res.follower_reads = summarize(m.merged_reads(follower_sites));
  res.follower_writes = summarize(m.merged_writes(follower_sites));
  return res;
}

}  // namespace praft::harness
