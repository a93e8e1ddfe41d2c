#pragma once

// Host-clock microbenchmarks of single layers, each through a public entry
// point: the event queue, a protocol codec, the KV state machine.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "kv/store.h"
#include "kv/workload.h"
#include "mencius/wire.h"
#include "net/buffer_pool.h"
#include "paxos/wire.h"
#include "raft/wire.h"
#include "raftstar/wire.h"
#include "sim/event_queue.h"
#include "stats.h"

namespace praft::pbench {

/// Publishes a result the timed loops computed, so the compiler cannot drop
/// the work that produced it.
inline volatile uint64_t g_sink = 0;
inline void keep(uint64_t v) { g_sink = v; }

/// Best of `trials` timings of `iters` calls of `op`, in ns per call. The
/// minimum is the reading least disturbed by whatever else the host runs.
template <typename Op>
double best_ns_per_call(int trials, int iters, Op&& op) {
  double best = 1e300;
  for (int t = 0; t < trials; ++t) {
    const int64_t t0 = wall_ns();
    for (int i = 0; i < iters; ++i) op(i);
    const int64_t t1 = wall_ns();
    best = std::min(best, static_cast<double>(t1 - t0) / iters);
  }
  return best;
}

/// EventQueue::schedule_at + step with a move-only closure, 1024 events
/// pending (about a LAN cluster's standing queue per replica).
inline double sched_step_ns() {
  struct Token {
    explicit Token(uint64_t x) : v(x) {}
    Token(Token&&) = default;
    Token(const Token&) = delete;
    uint64_t v;
  };
  sim::EventQueue q;
  Rng rng(7);
  uint64_t sink = 0;
  for (uint64_t i = 0; i < 1024; ++i) {
    q.schedule_at(static_cast<Time>(rng.below(1000)),
                  [t = Token(i), &sink] { sink += t.v; });
  }
  const double ns = best_ns_per_call(5, 200'000, [&](int i) {
    q.schedule_at(
        q.now() + 1 + static_cast<Time>(rng.below(1000)),
        [t = Token(static_cast<uint64_t>(i)), &sink] { sink += t.v; });
    q.step();
  });
  keep(sink);
  return ns;
}

/// KvStore::apply over `cmds`, replayed into a warm store.
inline double kv_apply_ns(const std::vector<kv::Command>& cmds) {
  kv::KvStore store;
  for (const auto& c : cmds) store.apply(c);
  uint64_t sink = 0;
  const int n = static_cast<int>(cmds.size());
  const double ns = best_ns_per_call(5, n, [&](int i) {
    sink += store.apply(cmds[static_cast<size_t>(i)]).version;
  });
  keep(sink);
  return ns;
}

struct CodecCost {
  double encode_ns = 0;
  double decode_ns = 0;
};

/// encode/decode of one protocol message through its family codec, with a
/// warm frame pool.
template <typename Msg>
CodecCost codec_cost(const Msg& m,
                     net::Frame (*enc)(const Msg&, net::BufferPool&),
                     Msg (*dec)(net::FrameView)) {
  net::BufferPool pool;
  CodecCost c;
  size_t sink = 0;
  c.encode_ns = best_ns_per_call(5, 50'000, [&](int) {
    net::Frame f = enc(m, pool);
    sink += f.size();
  });
  const net::Frame f = enc(m, pool);
  c.decode_ns = best_ns_per_call(5, 50'000, [&](int) {
    const Msg back = dec(net::view(f));
    sink += back.index();
  });
  keep(sink);
  return c;
}

/// The replication message of each protocol family, carrying `cmds`.
enum class Family { kRaft, kRaftStar, kMultiPaxos, kMencius };

inline CodecCost replication_codec_cost(Family fam,
                                        const std::vector<kv::Command>& cmds) {
  switch (fam) {
    case Family::kRaft: {
      raft::AppendEntries ae{7, 0, 41, 6, {}, 40};
      for (const auto& c : cmds) ae.entries.push_back(raft::Entry{7, c});
      return codec_cost<raft::Message>(raft::Message{ae}, raft::encode,
                                       raft::decode);
    }
    case Family::kRaftStar: {
      raftstar::AppendEntries ae{7, 0, 41, 6, {}, 40};
      for (const auto& c : cmds) ae.entries.push_back(raftstar::Entry{7, c});
      return codec_cost<raftstar::Message>(raftstar::Message{ae},
                                           raftstar::encode, raftstar::decode);
    }
    case Family::kMultiPaxos: {
      paxos::AcceptBatch ab{consensus::Ballot{3, 0}, 0, 42, cmds, 40};
      return codec_cost<paxos::Message>(paxos::Message{ab}, paxos::encode,
                                        paxos::decode);
    }
    case Family::kMencius: {
      mencius::AcceptOwn ao{0, {}, 40, -1};
      consensus::LogIndex slot = 45;
      for (const auto& c : cmds) {
        ao.items.push_back(mencius::OwnItem{slot, c});
        slot += 5;
      }
      return codec_cost<mencius::Message>(mencius::Message{ao},
                                          mencius::encode, mencius::decode);
    }
  }
  return {};
}

/// Log entries carried by `p` when it is its family's replication message
/// (0 for anything else, empty keep-alives included).
inline size_t replication_entries(Family fam, const net::Packet& p) {
  switch (fam) {
    case Family::kRaft:
      if (const auto* m = net::payload_as<raft::Message>(p)) {
        if (const auto* ae = std::get_if<raft::AppendEntries>(m)) {
          return ae->entries.size();
        }
      }
      return 0;
    case Family::kRaftStar:
      if (const auto* m = net::payload_as<raftstar::Message>(p)) {
        if (const auto* ae = std::get_if<raftstar::AppendEntries>(m)) {
          return ae->entries.size();
        }
      }
      return 0;
    case Family::kMultiPaxos:
      if (const auto* m = net::payload_as<paxos::Message>(p)) {
        if (const auto* ab = std::get_if<paxos::AcceptBatch>(m)) {
          return ab->cmds.size();
        }
      }
      return 0;
    case Family::kMencius:
      if (const auto* m = net::payload_as<mencius::Message>(p)) {
        if (const auto* ao = std::get_if<mencius::AcceptOwn>(m)) {
          return ao->items.size();
        }
      }
      return 0;
  }
  return 0;
}

}  // namespace praft::pbench
