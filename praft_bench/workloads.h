#pragma once

// The five workloads and one repetition of any of them: build the
// deployment, run it, drain, quiesce, check convergence, and measure.

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "client.h"
#include "micro.h"
#include "pql/raftstar_pql.h"
#include "stats.h"
#include "trace.h"
#include "world.h"

namespace praft::pbench {

enum class Kind {
  kRegistryRaft,  // raft through the protocol registry, durable stores
  kMencius,       // Raft*-Mencius (MenciusServer, early ack)
  kPql,           // Raft*-PQL (RaftStarPqlServer, paper leases)
  kShardedPaxos,  // multipaxos groups over ShardedCluster
};

struct Spec {
  const char* name = "";
  Kind kind = Kind::kRegistryRaft;
  Family family = Family::kRaft;
  /// Seed of the simulated deployment: network jitter, protocol timers. It
  /// is part of the system under test and fixed; --seed varies the inputs.
  uint64_t cluster_seed = 0;
  int clients = 0;  // per region (flat) or per machine (sharded)
  int groups = 1;   // consensus groups (sharded)
  kv::WorkloadConfig wl;
  Duration flat_rtt = -1;  // -1: the paper's aws5 geo matrix
  consensus::TimingOptions timing;
  /// Throughput and latency are measured over `window` after `warmup`;
  /// clients stop issuing at the end of the window, then get `drain` to
  /// collect their replies. Closed loop when `period` is 0, else open loop
  /// with one op due per client every `period`.
  Duration warmup = 0;
  Duration window = 0;
  Duration drain = 0;
  Duration period = 0;
  Duration resend_after = sec(5);
  /// Crash the leader at crash_at, restart it at restart_at (-1: never).
  /// Flat deployments only, and not before the warm-up ends.
  Duration crash_at = -1;
  Duration restart_at = -1;
};

inline kv::WorkloadConfig puts_only() {
  kv::WorkloadConfig wl;
  wl.read_fraction = 0.0;
  wl.conflict_rate = 0.0;
  wl.num_records = 100'000;
  wl.value_size = 8;
  return wl;
}

inline Spec make_spec(const char* name, Kind kind, Family family,
                      uint64_t cluster_seed, int clients,
                      const kv::WorkloadConfig& wl) {
  Spec s;
  s.name = name;
  s.kind = kind;
  s.family = family;
  s.cluster_seed = cluster_seed;
  s.clients = clients;
  s.wl = wl;
  return s;
}

inline std::vector<Spec> all_specs() {
  std::vector<Spec> out;
  {
    Spec s = make_spec("lan-write-raft", Kind::kRegistryRaft, Family::kRaft,
                       90020, 80, puts_only());
    s.flat_rtt = msec(1) / 2;
    s.timing.max_entries_per_batch = 64;
    s.warmup = sec(1);
    s.window = sec(4);
    s.drain = sec(1);
    out.push_back(s);
  }
  {
    Spec s = make_spec("geo-write-mencius", Kind::kMencius, Family::kMencius,
                       90040, 200, puts_only());
    s.warmup = sec(2);
    s.window = sec(6);
    s.drain = sec(3);
    out.push_back(s);
  }
  {
    kv::WorkloadConfig fig9 = puts_only();
    fig9.read_fraction = 0.9;
    fig9.conflict_rate = 0.05;
    Spec s = make_spec("geo-read-pql", Kind::kPql, Family::kRaftStar, 90050,
                       50, fig9);
    s.warmup = sec(3);
    s.window = sec(10);
    s.drain = sec(3);
    out.push_back(s);
  }
  {
    Spec s = make_spec("failover-raft", Kind::kRegistryRaft, Family::kRaft,
                       90060, 10, puts_only());
    s.timing.fsync_duration = msec(2);
    s.timing.sync_batch_delay = msec(1);
    s.window = sec(16);
    s.drain = sec(5);
    s.period = msec(50);
    s.resend_after = sec(1);
    s.crash_at = sec(4);
    s.restart_at = sec(9);
    out.push_back(s);
  }
  {
    Spec s = make_spec("sharded-write-paxos", Kind::kShardedPaxos,
                       Family::kMultiPaxos, 90030, 80, puts_only());
    s.groups = 4;
    s.period = msec(16);
    s.flat_rtt = msec(1) / 2;
    s.timing.max_entries_per_batch = 64;
    s.warmup = msec(500);
    s.window = sec(2);
    s.drain = sec(1);
    out.push_back(s);
  }
  return out;
}

/// Builds the deployment and waits for its leaders; the sim clock then
/// stands at the moment the first client op may fall due.
inline std::unique_ptr<World> build_world(const Spec& s) {
  if (s.kind == Kind::kShardedPaxos) {
    shard::ShardedClusterConfig cc;
    cc.num_groups = s.groups;
    cc.num_machines = 15;
    cc.replicas_per_group = 5;
    cc.spread_leaders = true;
    cc.protocols = {"multipaxos"};
    cc.timing = s.timing;
    cc.latency = sim::LatencyMatrix(cc.num_machines, s.flat_rtt);
    cc.seed = s.cluster_seed;
    auto w = std::make_unique<ShardWorld>(cc);
    w->cluster().build();
    if (w->cluster().establish_leaders() != cc.num_groups) {
      throw std::runtime_error("not every group elected a leader");
    }
    return w;
  }
  harness::ClusterConfig cc;
  cc.seed = s.cluster_seed;
  if (s.flat_rtt >= 0) cc.latency = sim::LatencyMatrix(5, s.flat_rtt);
  auto w = std::make_unique<FlatWorld>(cc);
  harness::Cluster& c = w->cluster();
  const harness::CostModel costs = c.config().costs;
  switch (s.kind) {
    case Kind::kRegistryRaft:
      c.build_replicas("raft", s.timing);
      break;
    case Kind::kMencius:
      c.build_replicas(
          [costs](harness::NodeHost& h, const consensus::Group& g) {
            return std::make_unique<mencius::MenciusServer>(h, g, costs);
          });
      break;
    case Kind::kPql:
      c.build_replicas(
          [costs](harness::NodeHost& h, const consensus::Group& g) {
            return std::make_unique<pql::RaftStarPqlServer>(h, g, costs);
          });
      break;
    case Kind::kShardedPaxos:
      break;
  }
  w->note_built(s.kind == Kind::kRegistryRaft);
  if (c.server(0).leaderless()) {
    c.run_for(msec(500));  // let status beats flow
  } else if (c.establish_leader(0) != 0) {
    throw std::runtime_error("replica 0 did not become leader");
  }
  return w;
}

struct RepOptions {
  uint64_t seed = 1;
  bool trace = false;
  bool quick = false;  // warm-up and window / 4, except around a crash
};

struct RepOutput {
  std::vector<Metric> metrics;
  std::vector<std::string> failures;
  std::vector<std::string> spans;
  uint64_t reply_hash = 0;
  double setup_s = 0;  // host wall time, rep start -> first op due
};

namespace detail {

inline void add(RepOutput& out, const char* name, double v, const char* unit,
                Clock clock = Clock::kSim, int64_t n = -1) {
  out.metrics.push_back(Metric{name, v, unit, n, clock});
}

inline double ms(int64_t us) { return static_cast<double>(us) / 1000.0; }

inline void add_percentiles(RepOutput& out, const std::string& prefix,
                            std::vector<int64_t>& v) {
  const auto n = static_cast<int64_t>(v.size());
  out.metrics.push_back(
      Metric{prefix + "_p50_ms", ms(percentile(v, 50)), "ms", n, Clock::kSim});
  out.metrics.push_back(
      Metric{prefix + "_p99_ms", ms(percentile(v, 99)), "ms", n, Clock::kSim});
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Starts `s.clients` clients per partition of the key space, in a fixed
/// order, with every random choice drawn from the workload seed.
inline std::vector<std::unique_ptr<BenchClient>> start_clients(
    World& w, const Spec& s, Ledger& ledger, uint64_t seed, Time t0) {
  Rng rng(seed ^ 0x5eed5eed5eed5eedull);
  kv::WorkloadConfig wl = s.wl;
  const std::vector<SiteId> sites = w.client_sites();
  wl.num_partitions = static_cast<int>(sites.size());
  std::vector<std::unique_ptr<BenchClient>> clients;
  for (int p = 0; p < wl.num_partitions; ++p) {
    for (int c = 0; c < s.clients; ++c) {
      harness::NodeHost& host =
          w.add_client_host(sites[static_cast<size_t>(p)]);
      kv::WorkloadGenerator gen(wl, p, rng.split());
      BenchClient::Options opt;
      opt.start_at = t0;
      opt.offset = static_cast<Duration>(
          rng.below(static_cast<uint64_t>(s.period > 0 ? s.period : 1000)));
      opt.period = s.period;
      opt.resend_after = s.resend_after;
      clients.push_back(std::make_unique<BenchClient>(
          host, std::move(gen),
          [&w, p](const kv::Command& cmd, int attempt) {
            return w.route(p, cmd, attempt);
          },
          ledger, opt));
      clients.back()->start();
    }
  }
  return clients;
}

/// Why the live replicas disagree, or "" when in every group they all have
/// the same applied index and the same store fingerprint.
inline std::string divergence(World& w) {
  const auto groups = w.groups();
  for (size_t g = 0; g < groups.size(); ++g) {
    harness::ReplicaServer* first = nullptr;
    for (harness::ReplicaServer* r : groups[g]) {
      if (r == nullptr) continue;
      if (first == nullptr) {
        first = r;
        continue;
      }
      const auto a = node_of(*r).applied_index();
      const auto b = node_of(*first).applied_index();
      const uint64_t fa = r->store().fingerprint();
      const uint64_t fb = first->store().fingerprint();
      if (a != b || fa != fb) {
        return "group " + std::to_string(g) + ": replica " +
               std::to_string(r->id()) + " applied " + std::to_string(a) +
               " fingerprint " + std::to_string(fa) + ", replica " +
               std::to_string(first->id()) + " applied " + std::to_string(b) +
               " fingerprint " + std::to_string(fb);
      }
    }
  }
  return "";
}

/// Busy share of `window` for each resource, from two busy-time readings.
inline std::vector<double> utilization(const std::vector<Duration>& before,
                                       const std::vector<Duration>& after,
                                       Duration window) {
  std::vector<double> out;
  for (size_t i = 0; i < after.size(); ++i) {
    out.push_back(static_cast<double>(after[i] - before[i]) /
                  static_cast<double>(window));
  }
  return out;
}

/// The traced pass's own metrics: stages, batch size and microbenchmarks
/// of single layers on this workload's inputs.
inline void add_traced(RepOutput& out, const Spec& s, uint64_t seed,
                       const StageTracer& stages, Ledger& ledger,
                       uint64_t repl_msgs, uint64_t repl_entries,
                       int64_t host_t0) {
  Spans spans(s.name);
  StageTracer::Result st = stages.join(spans);
  if (st.unapplied_writes > 0) {
    out.failures.push_back(std::to_string(st.unapplied_writes) +
                           " replied writes were never applied");
  }
  const double lat = mean(ledger.writes());
  const double staged = mean(st.order) + mean(st.reply);
  if (lat > 0 && std::abs(staged - lat) > 0.01 * lat) {
    out.failures.push_back("stage.order + stage.reply mean " +
                           std::to_string(staged) +
                           " us != write latency mean " + std::to_string(lat) +
                           " us");
  }
  add_percentiles(out, "stage.order", st.order);
  add_percentiles(out, "stage.reply", st.reply);
  add_percentiles(out, "stage.replicate_lag", st.lag);
  add(out, "stage.local_read_frac",
      ratio(static_cast<double>(st.local_reads), static_cast<double>(st.reads)),
      "frac", Clock::kSim, static_cast<int64_t>(st.reads));
  const double per_msg = ratio(static_cast<double>(repl_entries),
                               static_cast<double>(repl_msgs));
  add(out, "net.entries_per_msg", per_msg, "count", Clock::kSim,
      static_cast<int64_t>(repl_msgs));

  kv::WorkloadConfig one = s.wl;
  one.num_partitions = 1;
  kv::WorkloadGenerator gen(one, 0, Rng(seed));
  std::vector<kv::Command> cmds;
  for (uint64_t i = 1; i <= 65'536; ++i) cmds.push_back(gen.next(7, i));
  const std::vector<kv::Command> batch(
      cmds.begin(), cmds.begin() + std::max<long>(1, std::lround(per_msg)));

  const auto host_us = [host_t0] {
    return static_cast<double>(wall_ns() - host_t0) / 1000.0;
  };
  double t = host_us();
  add(out, "sim.sched_step_ns", sched_step_ns(), "ns", Clock::kHost);
  spans.add("micro.sim", "", "micro.sim.sched_step", "host", t, host_us());
  t = host_us();
  const CodecCost codec = replication_codec_cost(s.family, batch);
  add(out, "net.encode_ns", codec.encode_ns, "ns", Clock::kHost);
  add(out, "net.decode_ns", codec.decode_ns, "ns", Clock::kHost);
  spans.add("micro.net", "", "micro.net.codec", "host", t, host_us());
  t = host_us();
  add(out, "kv.apply_ns", kv_apply_ns(cmds), "ns", Clock::kHost);
  spans.add("micro.kv", "", "micro.kv.apply", "host", t, host_us());
  out.spans = spans.lines();
}

}  // namespace detail

/// One repetition of `s`. Never throws: a failed check or an exception
/// becomes an entry in `failures`.
inline RepOutput run_rep(const Spec& s, const RepOptions& o) {
  using detail::add;
  using detail::ratio;
  RepOutput out;
  const int64_t host_t0 = wall_ns();
  try {
    const Duration scale = o.quick && s.crash_at < 0 ? 4 : 1;
    const Duration window = s.window / scale;
    std::unique_ptr<World> w = build_world(s);
    sim::Simulator& sim = w->sim();
    const Time t0 = sim.now();
    const Time ws = t0 + s.warmup / scale;  // measurement window [ws, we)
    const Time we = ws + window;

    Ledger ledger;
    ledger.set_window(ws, we, /*by_due=*/s.period > 0);
    ledger.set_gap_origin(s.crash_at >= 0 ? t0 + s.crash_at : ws);
    const auto clients = detail::start_clients(*w, s, ledger, o.seed, t0);

    // Traced pass only: observers that leave the trajectory unchanged.
    StageTracer stages;
    uint64_t repl_msgs = 0;
    uint64_t repl_entries = 0;
    std::vector<std::unique_ptr<ReplicationTap>> taps;
    const auto tap_all = [&] {
      taps.clear();
      for (auto& g : w->groups()) {
        for (harness::ReplicaServer* r : g) {
          if (r != nullptr) {
            taps.push_back(std::make_unique<ReplicationTap>(
                *r, s.family, repl_msgs, repl_entries));
          }
        }
      }
    };
    if (o.trace) {
      w->install_apply_probe(
          [&stages, &sim](NodeId r, consensus::LogIndex, const kv::Command& c) {
            stages.on_apply(r, c, sim.now());
          });
      ledger.set_observer([&stages](const kv::Command& c, Time due, Time now,
                                    bool sampled) {
        stages.on_reply(c, due, now, sampled);
      });
      tap_all();
    }

    // Leader changes, polled between fixed sim-time steps (no events are
    // added to the queue, so polling cannot move the trajectory).
    std::vector<int> leader = w->leaders();
    int64_t leader_changes = 0;
    const auto advance = [&](Time until) {
      while (sim.now() < until) {
        sim.run_until(std::min(until, sim.now() + msec(10)));
        const std::vector<int> now_leading = w->leaders();
        for (size_t g = 0; g < now_leading.size(); ++g) {
          if (now_leading[g] >= 0 && now_leading[g] != leader[g]) {
            ++leader_changes;
            leader[g] = now_leading[g];
          }
        }
      }
    };
    const auto disk_busy = [&w] {
      std::vector<Duration> v;
      for (auto* st : w->stores()) v.push_back(st->disk().busy_time());
      return v;
    };
    const auto syncs = [&w] {
      uint64_t n = 0;
      for (auto* st : w->stores()) n += st->syncs();
      return n;
    };

    // ---- run phase: first op due -> end of the window ----
    out.setup_s = static_cast<double>(wall_ns() - host_t0) / 1e9;
    const int64_t cpu0 = process_cpu_ns();
    const uint64_t ev0 = sim.queue().events_fired();
    const uint64_t msgs0 = w->net().messages_sent();
    const uint64_t bytes0 = w->net().bytes_sent();
    const uint64_t syncs0 = syncs();
    advance(ws);
    const std::vector<Duration> cpu_ws = w->machine_cpu_busy();
    const std::vector<Duration> disk_ws = disk_busy();
    size_t replayed = 0;
    if (s.crash_at >= 0) {  // failover: crash_at >= warmup
      harness::Cluster& c = dynamic_cast<FlatWorld&>(*w).cluster();
      advance(t0 + s.crash_at);
      const int victim = c.leader_replica();
      if (victim < 0) throw std::runtime_error("no leader to crash");
      c.crash_replica(victim);
      advance(t0 + s.restart_at);
      c.restart_replica(victim);
      if (auto* ls = dynamic_cast<harness::LogServer*>(&c.server(victim))) {
        replayed = ls->recovery().replayed;
      }
      stages.restarted(c.replica_id(victim), sim.now());
      if (o.trace) tap_all();
    }
    advance(we);
    const int64_t cpu1 = process_cpu_ns();
    const auto replies = static_cast<double>(ledger.replied());
    const auto events =
        static_cast<double>(sim.queue().events_fired() - ev0);
    const auto msgs = static_cast<double>(w->net().messages_sent() - msgs0);
    const auto bytes = static_cast<double>(w->net().bytes_sent() - bytes0);
    const auto run_syncs = static_cast<double>(syncs() - syncs0);
    const std::vector<double> cpu_util =
        detail::utilization(cpu_ws, w->machine_cpu_busy(), window);
    const std::vector<double> disk_util =
        detail::utilization(disk_ws, disk_busy(), window);

    // ---- drain, then quiesce and check convergence ----
    for (auto& c : clients) c->stop_issuing();
    advance(we + s.drain);
    uint64_t resends = 0;
    for (auto& c : clients) {
      resends += c->resends();
      c->halt();
    }
    std::string diverged = "not checked";
    for (int step = 0; step < 100 && !diverged.empty(); ++step) {
      advance(sim.now() + msec(100));
      diverged = detail::divergence(*w);
    }
    if (!diverged.empty()) {
      out.failures.push_back("live replicas did not converge: " + diverged);
    }

    // ---- metrics ----
    add(out, "tput_ops_s",
        static_cast<double>(ledger.window_replies()) * 1e6 /
            static_cast<double>(window),
        "ops/s");
    detail::add_percentiles(out, "write", ledger.writes());
    detail::add_percentiles(out, "read", ledger.reads());
    add(out, "unavailable_ms", detail::ms(ledger.max_gap()), "ms");
    add(out, "ops_attempted", static_cast<double>(ledger.attempted()), "count");
    add(out, "ops_failed",
        static_cast<double>(ledger.attempted() - ledger.replied()), "count");
    const auto cpu_ns = static_cast<double>(cpu1 - cpu0);
    add(out, "host_ns_per_op", ratio(cpu_ns, replies), "ns", Clock::kHost);
    add(out, "sim.host_ns_per_event", ratio(cpu_ns, events), "ns",
        Clock::kHost);
    add(out, "sim.events_per_op", ratio(events, replies), "count");
    add(out, "net.msgs_per_op", ratio(msgs, replies), "count");
    add(out, "net.bytes_per_op", ratio(bytes, replies), "B");
    add(out, "net.pool_high_water",
        static_cast<double>(w->net().pool_stats().high_water), "count");
    add(out, "cpu.util_max",
        *std::max_element(cpu_util.begin(), cpu_util.end()), "frac");
    add(out, "cpu.util_min",
        *std::min_element(cpu_util.begin(), cpu_util.end()), "frac");
    add(out, "client.resends", static_cast<double>(resends), "count");
    int64_t rollbacks = w->retired_rollbacks();
    int64_t revocations = w->retired_revocations();
    for (auto& g : w->groups()) {
      for (harness::ReplicaServer* r : g) {
        if (r == nullptr) continue;
        rollbacks += node_of(*r).pipeline_rollbacks();
        revocations += node_of(*r).revocations_started();
      }
    }
    add(out, "consensus.pipeline_rollbacks", static_cast<double>(rollbacks),
        "count");
    add(out, "consensus.leader_changes", static_cast<double>(leader_changes),
        "count");
    add(out, "mencius.revocations", static_cast<double>(revocations), "count");
    add(out, "storage.fsyncs_per_op", ratio(run_syncs, replies), "count");
    add(out, "storage.disk_util",
        disk_util.empty()
            ? 0.0
            : *std::max_element(disk_util.begin(), disk_util.end()),
        "frac");
    add(out, "storage.replayed_entries", static_cast<double>(replayed),
        "count");
    out.reply_hash = ledger.reply_hash();

    if (o.trace) {
      detail::add_traced(out, s, o.seed, stages, ledger, repl_msgs,
                         repl_entries, host_t0);
    }
  } catch (const std::exception& e) {
    out.failures.push_back(std::string("exception: ") + e.what());
  }
  return out;
}

}  // namespace praft::pbench
