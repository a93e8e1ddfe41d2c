#include "chaos/runner.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "chaos/invariants.h"
#include "chaos/mutator.h"
#include "common/check.h"
#include "harness/cluster.h"
#include "harness/replica_group.h"
#include "shard/shard_invariants.h"

namespace praft::chaos {

namespace {

/// What the run body and the fault switch drive: replica groups over
/// machines, one invariant checker per group. A flat cluster is the 1-group
/// case whose machine m hosts replica m; a sharded one puts a replica of
/// every group on each machine, so one fault window stresses several groups
/// at once — the sharded failure mode single-group chaos can't reach.
struct Deployment {
  sim::Simulator& sim;
  std::vector<harness::ReplicaGroup*> groups;
  int machines = 0;
  std::vector<std::unique_ptr<InvariantChecker>> chks;

  /// Fault context goes into every group's trace: a machine fault concerns
  /// all of them.
  void note(const std::string& event) {
    for (auto& chk : chks) chk->note(event);
  }
  /// What the fault notes call a machine. A flat cluster's machine is its
  /// replica, and the notes feed the trace fingerprint, so the flat wording
  /// stays.
  [[nodiscard]] const char* unit() const {
    return groups.size() == 1 ? "replica" : "machine";
  }
  [[nodiscard]] bool machine_up(int m) const {
    return std::any_of(groups.begin(), groups.end(),
                       [m](const harness::ReplicaGroup* g) {
                         const int j = g->member_on(m);
                         return j >= 0 && g->up(j);
                       });
  }
  /// Machine currently hosting the plurality of group leaders, or a
  /// deterministic fallback when nobody leads at this instant (leaderless
  /// protocols, mid-election windows).
  [[nodiscard]] int leader_machine(Time at) const {
    std::vector<int> votes(static_cast<size_t>(machines), 0);
    for (const harness::ReplicaGroup* g : groups) {
      const int l = g->leader();
      if (l >= 0) ++votes[static_cast<size_t>(g->machine_of(l))];
    }
    const auto best = std::max_element(votes.begin(), votes.end());  // first
    if (*best > 0) return static_cast<int>(best - votes.begin());
    return static_cast<int>(static_cast<uint64_t>(at) %
                            static_cast<uint64_t>(machines));
  }
};

/// Installs one fault event. The schedule's replica indices name machines,
/// and each window applies to every replica the machine hosts.
/// Machine-targeted windows go straight into the FaultPlan; leader-targeted
/// windows arm a simulator callback that resolves the victim when the
/// window opens.
void arm_event(const FaultEvent& e, sim::FaultPlan& faults, Deployment& d) {
  // Host-based id lookup: valid even while a replica is crash-destroyed.
  const auto ids = [&d](int m) {
    return harness::machine_node_ids(d.groups, m);
  };
  switch (e.kind) {
    case FaultEvent::Kind::kDropBurst:
      faults.drop_burst(e.p, e.from, e.to);
      return;
    case FaultEvent::Kind::kPartitionPair:
      // Cut every cross-machine pair: co-located replicas of DIFFERENT
      // groups never talk anyway, and same-machine traffic is untouched.
      for (NodeId a : ids(e.a)) {
        for (NodeId b : ids(e.b)) faults.partition_pair(a, b, e.from, e.to);
      }
      return;
    case FaultEvent::Kind::kIsolate:
      for (NodeId id : ids(e.a)) faults.isolate(id, e.from, e.to);
      return;
    case FaultEvent::Kind::kCrash:
      for (NodeId id : ids(e.a)) faults.crash(id, e.from, e.to);
      return;
    case FaultEvent::Kind::kCrashRestart: {
      // Real crash-recover: the node objects die at `from` (unsynced durable
      // writes lost with them) and are rebuilt from their durable images at
      // `to`.
      d.sim.at(e.from, [&d, e] {
        if (!d.machine_up(e.a)) return;  // overlapping window
        char buf[128];
        std::snprintf(buf, sizeof(buf), "crash (destroy) -> %s %d (%s)",
                      d.unit(), e.a, e.describe().c_str());
        d.note(buf);
        harness::crash_machine(d.groups, e.a);
      });
      d.sim.at(e.to, [&d, e] { harness::restart_machine(d.groups, e.a); });
      return;
    }
    case FaultEvent::Kind::kLeaderCrash:
    case FaultEvent::Kind::kLeaderIsolate: {
      const bool is_crash = e.kind == FaultEvent::Kind::kLeaderCrash;
      d.sim.at(e.from, [&d, &faults, ids, e, is_crash] {
        const int victim = d.leader_machine(e.from);
        for (NodeId id : ids(victim)) {
          if (is_crash) {
            faults.crash(id, e.from, e.to);
          } else {
            faults.isolate(id, e.from, e.to);
          }
        }
        char buf[128];
        std::snprintf(buf, sizeof(buf), "%s -> %s %d (%s)",
                      is_crash ? "leader_crash" : "leader_isolate", d.unit(),
                      victim, e.describe().c_str());
        d.note(buf);
      });
      return;
    }
    case FaultEvent::Kind::kLeaderMinority: {
      d.sim.at(e.from, [&d, &faults, ids, e] {
        const int victim = d.leader_machine(e.from);
        const int kept = (victim + 1) % d.machines;
        for (int p = 0; p < d.machines; ++p) {
          if (p == victim || p == kept) continue;
          for (NodeId a : ids(victim)) {
            for (NodeId b : ids(p)) faults.partition_pair(a, b, e.from, e.to);
          }
        }
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "leader_minority -> %s %d penned with %d (%s)", d.unit(),
                      victim, kept, e.describe().c_str());
        d.note(buf);
      });
      return;
    }
  }
}

/// LAN-ish timing so one run fits in milliseconds of wall clock while the
/// schedule still spans many election timeouts and heartbeats.
consensus::TimingOptions timing_of(const RunOptions& opt) {
  consensus::TimingOptions timing;
  timing.election_timeout_min = msec(300);
  timing.election_timeout_max = msec(600);
  timing.heartbeat_interval = msec(60);
  if (opt.wan) {
    // Paper-scale WAN timing over the (default) aws5 geo matrix: RTTs up to
    // 292 ms keep whole windows of batches in flight per peer, so drops,
    // reorders and restarts land mid-pipeline instead of between batches.
    timing.election_timeout_min = msec(1200);
    timing.election_timeout_max = msec(2400);
    timing.heartbeat_interval = msec(150);
  }
  if (opt.inject_quorum_bug) {
    // The classic quorum off-by-one: n/2 acks "commit" (2 of 5). A leader
    // on the minority side of a partition can then commit entries the next
    // leader never saw — exactly what the invariants must catch.
    timing.unsafe_commit_quorum = opt.num_replicas / 2;
  }
  timing.compaction_log_cap = opt.compaction_log_cap;
  if (opt.crash_restarts || opt.inject_persistence_bug) {
    // Real fsync costs open a genuine staged-but-unsynced window; group
    // commit keeps the run fast the same way production systems do.
    timing.fsync_duration = opt.fsync;
    timing.sync_batch_delay = opt.sync_batch;
  }
  if (opt.inject_persistence_bug) timing.unsafe_skip_vote_fsync = true;
  return timing;
}

/// The run body: arms the schedule against `cluster`, runs the chaos phase
/// and a fault-free tail, and checks every group's invariants plus the
/// cross-group routing invariant (trivially met by one group).
RunResult run_on(harness::Cluster& cluster, const RunOptions& opt,
                 const Schedule& sched, Time faults_end) {
  Deployment d{cluster.sim(), cluster.groups(), opt.num_replicas, {}};
  shard::CrossGroupChecker xchk(
      shard::ShardMap(static_cast<int>(d.groups.size())));
  for (size_t g = 0; g < d.groups.size(); ++g) {
    d.chks.push_back(std::make_unique<InvariantChecker>());
    InvariantChecker& chk = *d.chks.back();
    chk.attach(*d.groups[g]);
    d.groups[g]->install_apply_probe(
        [&chk, &xchk, g = static_cast<int>(g)](
            NodeId r, consensus::LogIndex i, const kv::Command& c) {
          chk.on_apply(r, i, c);
          xchk.on_apply(g, r, i, c);
        });
  }
  // Replies are checked against the owning group's agreed log.
  cluster.install_reply_probe([&d](int g, const kv::Command& cmd,
                                   uint64_t value, bool ok, Time, Time) {
    d.chks[static_cast<size_t>(g)]->on_reply(cmd, value, ok);
  });

  const Time end = faults_end + sec(1) + opt.quiesce;
  if (opt.compaction_log_cap > 0) {
    // Bounded memory: sample each replica's compactable tail between events
    // throughout the run (the trigger runs synchronously on apply paths, so
    // the cap must hold whenever the simulator is between handlers).
    for (auto& chk : d.chks) chk->set_memory_cap(opt.compaction_log_cap);
    for (Time t = msec(500); t < end; t += msec(500)) {
      d.sim.at(t, [&d] {
        for (size_t g = 0; g < d.groups.size(); ++g) {
          d.chks[g]->sample_memory(*d.groups[g]);
        }
      });
    }
  }

  // Coverage signal: leadership handoffs summed across groups, sampled
  // between events.
  uint64_t leader_changes = 0;
  const bool leaderless = d.groups[0]->server(0).leaderless();
  if (!leaderless) {
    auto last = std::make_shared<std::vector<int>>(d.groups.size(), -1);
    for (Time t = msec(100); t < end; t += msec(100)) {
      d.sim.at(t, [&d, &leader_changes, last] {
        for (size_t g = 0; g < d.groups.size(); ++g) {
          const int now_leader = d.groups[g]->leader();
          int& prev = (*last)[g];
          if (now_leader >= 0 && now_leader != prev) {
            if (prev >= 0) ++leader_changes;
            prev = now_leader;
          }
        }
      });
    }
  }

  auto& faults = cluster.net().faults();
  faults.set_drop_rate(sched.drop_rate);
  faults.set_duplicate_rate(sched.duplicate_rate);
  faults.set_reorder_rate(sched.reorder_rate);
  for (const FaultEvent& e : sched.events) arm_event(e, faults, d);

  // A stable leader (when the protocol has one) before the fault windows
  // open, mirroring the paper's testbed runs: a seed-chosen replica of the
  // one group, or every group's preferred leader in parallel.
  if (leaderless) {
    cluster.run_for(msec(500));
  } else if (cluster.num_groups() == 1) {
    cluster.establish_leader(
        static_cast<int>(sched.seed %
                         static_cast<uint64_t>(cluster.num_replicas())),
        sec(10));
  } else {
    cluster.establish_leaders(sec(10));
  }
  cluster.add_clients(sched.clients_per_region, sched.workload,
                      cluster.sim().now());

  // Chaos phase, then a fault-free tail: clients stop, replicas repair and
  // re-converge, invariants are finalized on the quiesced deployment.
  cluster.run_until(faults_end + sec(1));
  d.note("faults over; draining clients");
  cluster.stop_clients();
  cluster.run_for(opt.quiesce);

  RunResult res;
  for (size_t g = 0; g < d.groups.size(); ++g) {
    InvariantChecker& chk = *d.chks[g];
    chk.finalize(*d.groups[g]);
    if (!chk.ok()) {
      res.ok = false;
      for (const std::string& v : chk.violations()) {
        res.violations.push_back(
            d.groups.size() == 1 ? v
                                 : "[group " + std::to_string(g) + "] " + v);
      }
      if (res.trace.empty()) res.trace = chk.trace();
    }
    res.log_length = std::max<int64_t>(res.log_length, chk.max_applied());
    res.client_ops += chk.client_ops();
    res.snapshot_installs += chk.snapshot_installs();
    res.restarts += chk.restarts();
    // Group-order fold: rotate so "group 0 saw X" differs from "group 1
    // saw X" even when per-group fingerprints collide pairwise. One group
    // folds to its own fingerprint.
    res.trace_fingerprint =
        (res.trace_fingerprint << 1 | res.trace_fingerprint >> 63) ^
        chk.fingerprint();
    const consensus::Stats stats = d.groups[g]->stats();
    res.revocations += static_cast<uint64_t>(stats.revocations_started);
    res.pipeline_rollbacks += static_cast<uint64_t>(stats.pipeline_rollbacks);
  }
  if (!xchk.ok()) {
    res.ok = false;
    for (const std::string& v : xchk.violations()) {
      res.violations.push_back("[cross-group] " + v);
    }
  }
  res.leader_changes = leader_changes;
  return res;
}

}  // namespace

ScheduleLimits effective_limits(const RunOptions& opt) {
  ScheduleLimits limits = opt.limits;
  limits.num_replicas = opt.num_replicas;
  if (opt.crash_restarts || opt.inject_persistence_bug) {
    limits.crash_restart = true;
  }
  if (opt.inject_persistence_bug) {
    // Guarantee election churn with a crash-restart landing inside it, so
    // the unsynced-vote window is exercised on every seed.
    limits.forced_crash_restarts = 2;
  }
  if (opt.inject_quorum_bug) {
    // Bug-hunting mode: guarantee the minority-pen scenario every seed so
    // the buggy n/2 commit both fires and gets overwritten. Still a pure
    // function of (seed, flags): the repro command carries the flag.
    limits.add_minority_window = true;
  }
  return limits;
}

Schedule schedule_of(const RunOptions& opt) {
  if (opt.schedule.has_value()) return *opt.schedule;
  return generate_schedule(opt.seed, effective_limits(opt));
}

uint64_t coverage_score(const RunResult& r) {
  return 3 * r.leader_changes + 5 * r.revocations +
         2 * r.snapshot_installs + 3 * r.restarts +
         2 * std::min<uint64_t>(r.pipeline_rollbacks, 10) +
         (r.log_length > 0 ? 1 : 0);
}

RunResult run_one(const RunOptions& opt) {
  const Schedule sched = schedule_of(opt);
  // Run phases key off the end of the fault phase. An evolved (or
  // hand-edited) schedule may carry windows past the generator limits, so
  // the fault-free tail starts after the LAST window either way.
  Time faults_end = effective_limits(opt).faults_until;
  for (const FaultEvent& e : sched.events) {
    faults_end = std::max(faults_end, e.to);
  }

  harness::ClusterConfig cfg;
  cfg.num_replicas = opt.num_replicas;
  cfg.num_groups = opt.groups;  // each machine hosts a member of every group
  cfg.seed = sched.seed;
  harness::Cluster cluster(cfg);
  cluster.build_replicas(opt.protocol, timing_of(opt));
  RunResult res = run_on(cluster, opt, sched, faults_end);
  res.protocol = opt.protocol;
  res.seed = sched.seed;
  res.schedule = sched.describe();
  res.repro = opt.schedule.has_value()
                  ? "chaos_runner --seed-file=<corpus> replaying this run's "
                    "schedule block (evolved schedules are not "
                    "seed-expressible; --failures-out saves the block)"
                  : "chaos_runner --protocol=" + opt.protocol + " --seed=" +
                        std::to_string(opt.seed) + run_flags(opt);
  return res;
}

}  // namespace praft::chaos
