// Micro-benchmarks (google-benchmark) for the hot paths underneath the
// experiment harness: the event queue, the histogram, protocol log appends,
// spec successor enumeration, and the wire codec / buffer pool.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "common/histogram.h"
#include "common/rng.h"
#include "harness/host.h"
#include "net/buffer_pool.h"
#include "net/wire.h"
#include "raft/wire.h"
#include "raftstar/node.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "specs/kvlog.h"

// Global allocation counter: the zero-alloc benches assert the steady-state
// encode and scheduling paths perform no heap allocations at all, not just
// "few".
namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

// The replacements stay out of line. Inlined into a caller, they would show
// GCC a `new` expression paired with a bare free() and trip
// -Wmismatched-new-delete, although malloc/free is the matching pair here.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return ::operator new(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

// NOTE: this TU intentionally avoids gtest; the ScriptedEnv equivalent below
// is minimal and local.
namespace {

using namespace praft;

class NullEnv final : public consensus::Env {
 public:
  [[nodiscard]] Time now() const override { return now_; }
  void send(NodeId, std::any, size_t) override { ++sent_; }
  void schedule(Duration, UniqueFunction<void()>) override {}
  uint64_t random() override { return rng_.next(); }
  Time now_ = 0;
  uint64_t sent_ = 0;
  Rng rng_{1};
};

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      q.schedule_at(i, [&fired] { ++fired; });
    }
    q.run_all();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Rng rng(7);
  for (auto _ : state) {
    h.record(static_cast<int64_t>(rng.below(1'000'000)));
  }
  benchmark::DoNotOptimize(h.percentile(99));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_RaftStarLeaderSubmit(benchmark::State& state) {
  NullEnv env;
  consensus::Group g;
  g.self = 0;
  g.members = {0};
  raftstar::Options opt;
  opt.batch_delay = 0;
  raftstar::RaftStarNode node(g, env, opt);
  node.start();
  node.force_election();
  kv::Command cmd{kv::Op::kPut, 1, 2, 8, 3, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(node.submit(cmd));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RaftStarLeaderSubmit);

void BM_SpecSuccessors(benchmark::State& state) {
  auto bundle = specs::make_kvlog(3, 3);
  const spec::State s0 = bundle->a.init()[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(bundle->a.successors(s0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpecSuccessors);

void BM_ValueHashCanonical(benchmark::State& state) {
  spec::Value::Set s;
  for (int i = 0; i < 64; ++i) {
    s.push_back(spec::VT(spec::V(i), spec::V(i * 3)));
  }
  const spec::Value v = spec::Value::set(std::move(s));
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.hash());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ValueHashCanonical);

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

void BM_WireEncodeAppend(benchmark::State& state) {
  net::BufferPool pool;
  const raft::Message m = make_append(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    net::Frame f = raft::encode(m, pool);
    benchmark::DoNotOptimize(f.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireEncodeAppend)->Arg(0)->Arg(1)->Arg(8);

void BM_WireDecodeAppend(benchmark::State& state) {
  net::BufferPool pool;
  const net::Frame f =
      raft::encode(make_append(static_cast<int>(state.range(0))), pool);
  for (auto _ : state) {
    raft::Message back = raft::decode(net::view(f));
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireDecodeAppend)->Arg(0)->Arg(1)->Arg(8);

void BM_PoolAcquireRelease(benchmark::State& state) {
  net::BufferPool pool;
  for (auto _ : state) {
    net::Frame f = pool.acquire(256);
    benchmark::DoNotOptimize(f.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolAcquireRelease);

/// The zero-alloc claim, asserted: after one warm-up encode (which may take
/// slabs from the preallocated freelist), 1000 encode+release cycles on the
/// steady-state append path must not touch the global heap. Decode allocates
/// by design (it materialises a Message); the hot send path never decodes —
/// only PRAFT_WIRE_VERIFY does.
void BM_WireEncodeZeroAlloc(benchmark::State& state) {
  net::BufferPool pool;
  const raft::Message m = make_append(8);
  { net::Frame warm = raft::encode(m, pool); }
  for (auto _ : state) {
    const uint64_t before = g_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < 1000; ++i) {
      net::Frame f = raft::encode(m, pool);
      benchmark::DoNotOptimize(f.data());
    }
    const uint64_t delta =
        g_allocs.load(std::memory_order_relaxed) - before;
    if (delta != 0) {
      std::fprintf(stderr,
                   "FAIL: %llu heap allocations on warm encode path\n",
                   static_cast<unsigned long long>(delta));
      std::abort();
    }
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_WireEncodeZeroAlloc);

/// The zero-alloc claim for scheduling, asserted: once the queue has grown
/// its cells, a delivery-sized move-only closure scheduled on the simulator
/// and a 24-byte-capture timer scheduled through a NodeHost's Env each sit
/// in their event cell, so 1000 schedule+step cycles of both must not touch
/// the global heap.
void BM_EventQueueZeroAlloc(benchmark::State& state) {
  struct Token {  // move-only, like a delivery's payload
    explicit Token(uint64_t x) : w{x, x, x, x} {}
    Token(Token&&) noexcept = default;
    Token(const Token&) = delete;
    uint64_t w[4];
  };
  sim::Simulator sim(1);
  sim::Network net(sim, sim::LatencyMatrix(1, msec(1)));
  harness::NodeHost host(sim, net, 0);
  uint64_t sink = 0;
  auto cycle = [&](uint64_t i) {
    auto delivery = [t = Token(i), &sink] { sink += t.w[3]; };
    static_assert(sizeof(delivery) == 40);  // sim::Network's delivery
    auto timer = [&sink, a = i, b = i + 1] { sink += a ^ b; };
    static_assert(sizeof(timer) == 24);
    sim.after(1, std::move(delivery));
    host.schedule(1, std::move(timer));
    sim.run_all();
  };
  for (uint64_t i = 0; i < 4; ++i) cycle(i);
  for (auto _ : state) {
    const uint64_t before = g_allocs.load(std::memory_order_relaxed);
    for (uint64_t i = 0; i < 1000; ++i) cycle(i);
    const uint64_t delta =
        g_allocs.load(std::memory_order_relaxed) - before;
    if (delta != 0) {
      std::fprintf(stderr,
                   "FAIL: %llu heap allocations on warm schedule+step path\n",
                   static_cast<unsigned long long>(delta));
      std::abort();
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_EventQueueZeroAlloc);

}  // namespace

BENCHMARK_MAIN();
