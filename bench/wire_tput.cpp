// Wire-format benchmark: codec cost per message (ns/encode, ns/decode),
// pool allocation behaviour on a warm hot path, and end-to-end replicated
// throughput under the byte-accurate cost model. Emits BENCH_wire.json by
// default so codec regressions show up in perf trajectories like the fig
// benches do.
#include <chrono>
#include <utility>

#include "bench_util.h"
#include "net/buffer_pool.h"
#include "net/wire.h"
#include "raft/wire.h"

using namespace praft;

namespace {

constexpr uint64_t kSeed = 90010;

raft::Message make_append(int entries) {
  raft::AppendEntries ae;
  ae.term = 7;
  ae.leader = 0;
  ae.prev_index = 41;
  ae.prev_term = 6;
  ae.commit = 40;
  for (int i = 0; i < entries; ++i) {
    const auto k = static_cast<uint64_t>(i);
    ae.entries.push_back(raft::Entry{7, kv::Command{kv::Op::kPut, 100 + k,
                                                    200 + k, 8, 3, 50 + k}});
  }
  return raft::Message{ae};
}

double ns_per_op(int iters, const std::function<void()>& op) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) op();
  const auto t1 = std::chrono::steady_clock::now();
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                 .count()) /
         iters;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonEmitter json("wire", argc, argv, "BENCH_wire.json");
  json.set_seed(kSeed);
  bench::print_header("Wire codec + pooled hot path throughput",
                      "praft flat wire format (PR 6)");

  // --- Codec cost: ns per encode / decode, small and batched appends. ---
  net::BufferPool pool;
  constexpr int kIters = 200'000;
  for (int entries : {0, 1, 8}) {
    const raft::Message m = make_append(entries);
    {  // warm the pool so the loop measures steady state, not slab allocs
      net::Frame f = raft::encode(m, pool);
    }
    const double enc = ns_per_op(kIters, [&] {
      net::Frame f = raft::encode(m, pool);
      (void)f;
    });
    const net::Frame f = raft::encode(m, pool);
    const double dec = ns_per_op(kIters, [&] {
      raft::Message back = raft::decode(net::view(f));
      (void)back;
    });
    char label[48];
    std::snprintf(label, sizeof(label), "AppendEntries[%d]", entries);
    json.add_value("codec", label, "ns_per_encode", enc);
    json.add_value("codec", label, "ns_per_decode", dec);
    std::printf("%-20s encode %8.1f ns   decode %8.1f ns   (%zu bytes)\n",
                label, enc, dec, f.size());
  }

  // --- Pool behaviour: slab allocations on a warm 1k-append burst. ---
  {
    const net::PoolStats before = pool.stats();
    const raft::Message m = make_append(4);
    for (int i = 0; i < 1000; ++i) {
      net::Frame f = raft::encode(m, pool);
    }
    const net::PoolStats after = pool.stats();
    const auto allocs = after.slab_allocs - before.slab_allocs;
    json.add_value("pool", "warm-1k-appends", "slab_allocs",
                   static_cast<double>(allocs));
    json.add_value("pool", "warm-1k-appends", "reuses",
                   static_cast<double>(after.reuses - before.reuses));
    std::printf("warm 1k appends: %llu slab allocs, %llu freelist reuses\n",
                static_cast<unsigned long long>(allocs),
                static_cast<unsigned long long>(after.reuses - before.reuses));
  }

  // --- End-to-end: replicated write throughput per protocol, byte-accurate
  // cost model: every send is charged its codec's size (frames are built
  // only under PRAFT_WIRE_VERIFY). ---
  const std::pair<const char*, harness::SystemKind> systems[] = {
      {"raft", harness::SystemKind::kRaft},
      {"raftstar", harness::SystemKind::kRaftStar},
      {"multipaxos", harness::SystemKind::kPaxos},
      {"mencius", harness::SystemKind::kMencius}};
  for (const auto& [protocol, system] : systems) {
    harness::ExperimentConfig cfg;
    cfg.system = system;
    cfg.workload = bench::fig10_workload(/*value_size=*/8,
                                         /*conflict_rate=*/0.0);
    cfg.clients_per_region = 200;
    cfg.run = sec(4);
    cfg.warmup = sec(2);
    cfg.cluster.seed = kSeed;
    const auto res = harness::run_experiment(cfg);
    json.add_throughput(protocol, "writes-8B", res.throughput_ops);
    std::printf("%-12s end-to-end %10.0f ops/s\n", protocol,
                res.throughput_ops);
  }

  return json.write() ? 0 : 1;
}
