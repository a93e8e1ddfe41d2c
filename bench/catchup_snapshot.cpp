// Catch-up latency + resident log size, with and without checkpoint-driven
// compaction, for all four protocols. One replica is crashed for 8 s while
// clients keep writing; on revival it must reach the live replicas' applied
// watermark. With compaction enabled the leaders' logs stay under the cap
// and the laggard catches up via snapshot state transfer; without it every
// replica retains the whole log and the laggard replays it entry by entry.
// Always writes BENCH_catchup_snapshot.json (override with --json=<path>).
#include <algorithm>

#include "bench_util.h"
#include "harness/cluster.h"
#include "harness/log_server.h"

using namespace praft;

namespace {

constexpr size_t kCap = 256;  // compaction cap (entries) for the "on" runs

struct Outcome {
  double catchup_ms = 0;
  size_t max_resident = 0;   // largest in-memory log across replicas, run-wide
  int64_t snapshots = 0;     // snapshot installs on the revived replica
  int64_t log_len = 0;       // applied watermark the laggard had to reach
  bool caught_up = false;
};

consensus::NodeIface& iface(harness::Cluster& cluster, int i) {
  return cluster.server(i).node_iface();
}

Outcome run_one(const std::string& protocol, size_t compaction_cap) {
  harness::ClusterConfig cfg;
  cfg.num_replicas = 5;
  cfg.seed = 777;
  harness::Cluster cluster(cfg);

  consensus::TimingOptions timing;
  timing.election_timeout_min = msec(300);
  timing.election_timeout_max = msec(600);
  timing.heartbeat_interval = msec(60);
  timing.compaction_log_cap = compaction_cap;
  cluster.build_replicas(protocol, timing);

  if (!cluster.server(0).leaderless()) {
    cluster.establish_leader(0, sec(10));
  } else {
    cluster.run_for(msec(500));
  }

  const int victim = 2;
  const Time down_from = cluster.sim().now() + sec(1);
  const Time down_to = down_from + sec(8);
  cluster.net().faults().crash(cluster.server(victim).id(), down_from, down_to);

  kv::WorkloadConfig wl;
  wl.read_fraction = 0.5;
  wl.value_size = 8;
  wl.num_records = 100'000;
  cluster.add_clients(4, wl, cluster.sim().now());

  Outcome out;
  const auto sample = [&] {
    for (int i = 0; i < cluster.num_replicas(); ++i) {
      out.max_resident =
          std::max(out.max_resident, iface(cluster, i).resident_log_entries());
    }
  };

  while (cluster.sim().now() < down_to) {
    cluster.run_for(msec(100));
    sample();
  }

  // Revival instant: the laggard must reach what the live replicas applied.
  consensus::LogIndex target = 0;
  for (int i = 0; i < cluster.num_replicas(); ++i) {
    if (i == victim) continue;
    target = std::max(target, iface(cluster, i).applied_index());
  }
  out.log_len = target;

  const Time deadline = down_to + sec(30);
  while (iface(cluster, victim).applied_index() < target &&
         cluster.sim().now() < deadline) {
    cluster.run_for(msec(10));
    sample();
  }
  out.catchup_ms = to_ms(cluster.sim().now() - down_to);
  out.caught_up = iface(cluster, victim).applied_index() >= target;
  out.snapshots = iface(cluster, victim).stats().snapshots_installed;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonEmitter json("catchup_snapshot", argc, argv,
                          "BENCH_catchup_snapshot.json");
  json.set_seed(777);
  bench::print_header(
      "Catch-up after an 8 s crash: snapshot transfer vs log replay",
      "runtime port of the paper's §2.2 Checkpoint optimization");
  std::printf("%-12s %-11s %12s %14s %10s %10s %9s\n", "protocol",
              "compaction", "catchup(ms)", "max resident", "snapshots",
              "log len", "caught up");
  bool all_caught_up = true;
  for (const char* protocol :
       {"raft", "raftstar", "multipaxos", "mencius"}) {
    for (const size_t cap : {size_t{0}, kCap}) {
      const Outcome o = run_one(protocol, cap);
      char label[32];
      std::snprintf(label, sizeof(label),
                    cap == 0 ? "off" : "cap=%zu", cap);
      std::printf("%-12s %-11s %12.1f %14zu %10lld %10lld %9s\n", protocol,
                  label, o.catchup_ms, o.max_resident,
                  static_cast<long long>(o.snapshots),
                  static_cast<long long>(o.log_len),
                  o.caught_up ? "yes" : "NO");
      json.add_value(protocol, label, "catchup_ms", o.catchup_ms);
      json.add_value(protocol, label, "max_resident_entries",
                     static_cast<double>(o.max_resident));
      json.add_value(protocol, label, "snapshot_installs",
                     static_cast<double>(o.snapshots));
      json.add_value(protocol, label, "log_len",
                     static_cast<double>(o.log_len));
      json.add_value(protocol, label, "caught_up", o.caught_up ? 1.0 : 0.0);
      all_caught_up &= o.caught_up;
      std::fflush(stdout);
    }
  }
  // A replica that misses the deadline is a failed run, not a slow figure:
  // trajectory tooling must see a red exit, not a plausible 30 s number.
  return (json.write() && all_caught_up) ? 0 : 1;
}
