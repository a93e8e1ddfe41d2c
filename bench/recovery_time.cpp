// Crash-restart recovery latency across all four protocols: how long does a
// replica that REALLY lost its volatile state (node object destroyed,
// rebuilt purely from its durable store) take to become a useful replica
// again — and what do snapshots and group commit buy?
//
//   * snapshots off  -> recovery replays the whole durable WAL;
//   * snapshots on   -> recovery restores the newest checkpoint and replays
//                       only the suffix (bounded by the compaction cap);
//   * group commit   -> fsyncs coalesce across the sync_batch_delay window,
//                       which is where fsync discipline stops dominating
//                       steady-state cost (Marandi et al., "The Performance
//                       of Paxos in the Cloud").
//
// Writes BENCH_recovery.json (schema_version 2, seeded) with one row group
// per (protocol, config): recovery_ms, replayed_entries, fsyncs during the
// load phase, and the applied index at crash time for scale.
#include <cstdio>

#include "bench_util.h"
#include "consensus/registry.h"
#include "harness/cluster.h"
#include "harness/log_server.h"

using namespace praft;

namespace {

constexpr uint64_t kSeed = 4242;

struct Config {
  const char* label;
  size_t compaction_cap;  // 0 = snapshots off
  Duration sync_batch;    // 0 = one fsync per persist demand
};

struct Outcome {
  double recovery_ms = -1.0;
  size_t replayed = 0;
  int64_t snapshot_floor = -1;
  uint64_t fsyncs = 0;
  int64_t applied_at_crash = 0;
  bool caught_up = false;
};

consensus::NodeIface& iface(harness::Cluster& cluster, int i) {
  return cluster.server(i).node_iface();
}

Outcome run_one(const std::string& protocol, const Config& cfg) {
  harness::ClusterConfig cc;
  cc.num_replicas = 5;
  cc.seed = kSeed;
  harness::Cluster cluster(cc);

  consensus::TimingOptions timing;
  timing.election_timeout_min = msec(300);
  timing.election_timeout_max = msec(600);
  timing.heartbeat_interval = msec(60);
  timing.fsync_duration = msec(2);
  timing.sync_batch_delay = cfg.sync_batch;
  timing.compaction_log_cap = cfg.compaction_cap;
  cluster.build_replicas(protocol, timing);

  int victim = 3;
  if (!cluster.server(0).leaderless()) {
    const int leader = cluster.establish_leader(0, sec(20));
    PRAFT_CHECK(leader >= 0);
    victim = (leader + 2) % cluster.num_replicas();
  } else {
    cluster.run_for(msec(500));
  }

  // Load phase: build up a real log (and, with a cap, real checkpoints).
  kv::WorkloadConfig wl;
  wl.read_fraction = 0.5;
  wl.num_records = 512;
  wl.value_size = 8;
  cluster.add_clients(/*per_region=*/2, wl, cluster.sim().now());
  cluster.run_for(sec(8));

  Outcome out;
  out.fsyncs = cluster.store_of(victim).syncs();
  out.applied_at_crash = iface(cluster, victim).applied_index();
  cluster.crash_replica(victim);
  // The cluster keeps serving while the replica is down; the restarted node
  // must recover AND catch up on what it missed.
  cluster.run_for(sec(2));

  consensus::LogIndex target = 0;
  for (int i = 0; i < cluster.num_replicas(); ++i) {
    if (!cluster.replica_up(i)) continue;
    target = std::max(target, cluster.server(i).commit_index());
  }
  const Time t0 = cluster.sim().now();
  cluster.restart_replica(victim);
  out.replayed = cluster.server(victim).recovery().replayed;
  out.snapshot_floor = cluster.server(victim).recovery().snapshot_floor;
  const Time limit = t0 + sec(30);
  while (cluster.sim().now() < limit) {
    cluster.run_for(msec(10));
    if (iface(cluster, victim).applied_index() >= target) {
      out.caught_up = true;
      break;
    }
  }
  out.recovery_ms =
      static_cast<double>(cluster.sim().now() - t0) / 1000.0;
  cluster.stop_clients();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonEmitter json("recovery", argc, argv, "BENCH_recovery.json");
  json.set_seed(kSeed);
  bench::print_header(
      "Crash-restart recovery: snapshots and group commit, all protocols",
      "durable hard state + WAL layer (Howard & Mortier's persistent-state "
      "footprints; Marandi et al.'s fsync discipline)");

  const Config configs[] = {
      {"wal-only/per-op-fsync", 0, 0},
      {"wal-only/group-commit", 0, msec(1)},
      {"snapshots/per-op-fsync", 128, 0},
      {"snapshots/group-commit", 128, msec(1)},
  };
  std::printf("%-11s %-24s %12s %10s %8s %10s\n", "protocol", "config",
              "recovery_ms", "replayed", "fsyncs", "caught_up");
  for (const auto& protocol : consensus::protocol_names()) {
    for (const Config& cfg : configs) {
      const Outcome out = run_one(protocol, cfg);
      std::printf("%-11s %-24s %12.1f %10zu %8llu %10s\n", protocol.c_str(),
                  cfg.label, out.recovery_ms, out.replayed,
                  static_cast<unsigned long long>(out.fsyncs),
                  out.caught_up ? "yes" : "NO");
      json.add_value(protocol, cfg.label, "recovery_ms", out.recovery_ms);
      json.add_value(protocol, cfg.label, "replayed_entries",
                     static_cast<double>(out.replayed));
      json.add_value(protocol, cfg.label, "snapshot_floor",
                     static_cast<double>(out.snapshot_floor));
      json.add_value(protocol, cfg.label, "load_phase_fsyncs",
                     static_cast<double>(out.fsyncs));
      json.add_value(protocol, cfg.label, "applied_at_crash",
                     static_cast<double>(out.applied_at_crash));
      json.add_value(protocol, cfg.label, "caught_up",
                     out.caught_up ? 1.0 : 0.0);
    }
  }
  return json.write() ? 0 : 1;
}
