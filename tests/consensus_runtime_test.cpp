// Tests for the shared consensus runtime layer: epoch-guarded timers,
// batching, sparse-log gap/watermark behaviour and storage, and the runtime
// protocol registry that instantiates all four protocols by name.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "consensus/applier.h"
#include "consensus/batcher.h"
#include "consensus/log.h"
#include "consensus/registry.h"
#include "consensus/slot_table.h"
#include "consensus/timer.h"
#include "scripted_env.h"

namespace praft {
namespace {

using test::ScriptedEnv;

// ---------------------------------------------------------------------------
// ElectionTimer: epoch guards, quiet-period checks, gating.
// ---------------------------------------------------------------------------

TEST(ElectionTimerTest, FiresAfterQuietPeriod) {
  ScriptedEnv env;
  consensus::ElectionTimer timer(env, msec(100), msec(100));
  int expirations = 0;
  timer.set_handler([&](bool expired) {
    if (expired) ++expirations;
  });
  timer.start();
  env.advance(msec(99));
  EXPECT_EQ(expirations, 0);
  env.advance(msec(2));
  EXPECT_EQ(expirations, 1);
}

TEST(ElectionTimerTest, TouchDefersExpiry) {
  ScriptedEnv env;
  consensus::ElectionTimer timer(env, msec(100), msec(100));
  int expirations = 0;
  int firings = 0;
  timer.set_handler([&](bool expired) {
    ++firings;
    if (expired) ++expirations;
  });
  timer.start();
  env.advance(msec(60));
  timer.touch();  // leader activity 60ms in
  env.advance(msec(50));
  // The timer fired at t=100 but only 50ms had passed since the touch.
  EXPECT_EQ(firings, 1);
  EXPECT_EQ(expirations, 0);
  // No further activity: the rearmed timer expires at t=200.
  env.advance(msec(100));
  EXPECT_EQ(expirations, 1);
}

TEST(ElectionTimerTest, StaleTimerNeverFiresAfterReset) {
  ScriptedEnv env;
  consensus::ElectionTimer timer(env, msec(100), msec(100));
  int firings = 0;
  timer.set_handler([&](bool) { ++firings; });
  timer.start();
  env.advance(msec(50));
  timer.reset();  // the t=100 callback is now stale
  env.advance(msec(60));
  // t=110: the original callback came due but its epoch is dead; the reset
  // chain fires at t=150.
  EXPECT_EQ(firings, 0);
  env.advance(msec(45));
  EXPECT_EQ(firings, 1);
}

TEST(ElectionTimerTest, CancelStopsTheChain) {
  ScriptedEnv env;
  consensus::ElectionTimer timer(env, msec(100), msec(100));
  int firings = 0;
  timer.set_handler([&](bool) { ++firings; });
  timer.start();
  timer.cancel();
  env.advance(sec(10));
  EXPECT_EQ(firings, 0);
}

TEST(ElectionTimerTest, GateSuppressesExpiryButChainContinues) {
  ScriptedEnv env;
  consensus::ElectionTimer timer(env, msec(100), msec(100));
  bool leader = true;  // gate: only non-leaders expire
  int expirations = 0;
  timer.set_gate([&] { return !leader; });
  timer.set_handler([&](bool expired) {
    if (expired) ++expirations;
  });
  timer.start();
  env.advance(msec(500));
  EXPECT_EQ(expirations, 0);  // suppressed while leading
  leader = false;
  env.advance(msec(200));
  EXPECT_GE(expirations, 1);  // the chain was still alive
}

TEST(PeriodicTimerTest, GateFalseKillsChainAndStartRestartsIt) {
  ScriptedEnv env;
  consensus::PeriodicTimer timer(env);
  bool active = true;
  int ticks = 0;
  timer.set_gate([&] { return active; });
  timer.set_handler([&] { ++ticks; });
  timer.start(msec(10));
  env.advance(msec(35));
  EXPECT_EQ(ticks, 3);
  active = false;
  env.advance(msec(50));
  EXPECT_EQ(ticks, 3);  // chain died at the first gated firing
  active = true;
  env.advance(msec(50));
  EXPECT_EQ(ticks, 3);  // dead chains do not resurrect on their own
  timer.start(msec(10));
  env.advance(msec(25));
  EXPECT_EQ(ticks, 5);
}

// ---------------------------------------------------------------------------
// Batcher: coalescing within the delay window.
// ---------------------------------------------------------------------------

TEST(BatcherTest, CoalescesPokesWithinWindow) {
  ScriptedEnv env;
  int flushes = 0;
  consensus::Batcher batcher(env, msec(5), [&] { ++flushes; });
  batcher.poke();
  batcher.poke();
  batcher.poke();
  EXPECT_TRUE(batcher.pending());
  env.advance(msec(5));
  EXPECT_EQ(flushes, 1);
  EXPECT_FALSE(batcher.pending());
  batcher.poke();
  env.advance(msec(5));
  EXPECT_EQ(flushes, 2);
}

// ---------------------------------------------------------------------------
// Logs and the apply watermark.
// ---------------------------------------------------------------------------

struct TestEntry {
  consensus::Term term = 0;
  kv::Command cmd;
};

TEST(ContiguousLogTest, SentinelAndBoundsChecks) {
  consensus::ContiguousLog<TestEntry> log;
  EXPECT_EQ(log.last_index(), 0);
  EXPECT_EQ(log.at(0).term, 0);  // sentinel
  log.append(TestEntry{3, kv::noop_command()});
  EXPECT_EQ(log.last_index(), 1);
  EXPECT_EQ(log.at(1).term, 3);
  EXPECT_THROW((void)log.at(2), CheckFailure);
  EXPECT_THROW((void)log.at(-1), CheckFailure);
  log.truncate_after(0);
  EXPECT_EQ(log.last_index(), 0);
  EXPECT_THROW(log.truncate_after(1), CheckFailure);
}

struct TestSlot {
  bool chosen = false;
  kv::Command cmd;
};

TEST(SparseLogTest, GapsPauseTheWatermarkAndRepairResumesIt) {
  consensus::SparseLog<TestSlot> log;
  consensus::Applier applier;
  std::vector<consensus::LogIndex> applied;
  applier.set_apply([&](consensus::LogIndex i, const kv::Command&) {
    applied.push_back(i);
  });
  auto get = [&](consensus::LogIndex i) -> const kv::Command* {
    const TestSlot* s = log.find(i);
    return (s != nullptr && s->chosen) ? &s->cmd : nullptr;
  };

  // Instances decided out of order: 1 and 3 chosen, 2 missing.
  log.materialize(1) = TestSlot{true, kv::noop_command()};
  log.materialize(3) = TestSlot{true, kv::noop_command()};
  applier.commit_to(3, get);
  EXPECT_EQ(applier.commit_index(), 3);  // watermark holds past the gap
  EXPECT_EQ(applier.applied(), 1);       // delivery paused at the gap
  ASSERT_EQ(applied.size(), 1u);

  // Repair the gap: delivery resumes in order, exactly once per index.
  log.materialize(2) = TestSlot{true, kv::noop_command()};
  applier.commit_to(3, get);
  EXPECT_EQ(applier.applied(), 3);
  ASSERT_EQ(applied.size(), 3u);
  EXPECT_EQ(applied[0], 1);
  EXPECT_EQ(applied[1], 2);
  EXPECT_EQ(applied[2], 3);

  // Re-raising an old watermark re-delivers nothing.
  applier.commit_to(2, get);
  EXPECT_EQ(applier.commit_index(), 3);
  EXPECT_EQ(applied.size(), 3u);
}

TEST(ApplierTest, UnboundedDrainForZeroBasedSlots) {
  // Mencius-style: 0-based slot space, per-slot decisions, no commit index.
  consensus::SparseLog<TestSlot> log;
  consensus::Applier applier(/*start=*/-1);
  int applies = 0;
  applier.set_apply([&](consensus::LogIndex, const kv::Command&) {
    ++applies;
  });
  auto get = [&](consensus::LogIndex i) -> const kv::Command* {
    const TestSlot* s = log.find(i);
    return (s != nullptr && s->chosen) ? &s->cmd : nullptr;
  };
  EXPECT_EQ(applier.next_index(), 0);
  log.materialize(0) = TestSlot{true, kv::noop_command()};
  log.materialize(1) = TestSlot{true, kv::noop_command()};
  log.materialize(3) = TestSlot{true, kv::noop_command()};
  applier.drain(get);
  EXPECT_EQ(applies, 2);
  EXPECT_EQ(applier.next_index(), 2);
  log.materialize(2) = TestSlot{true, kv::noop_command()};
  applier.drain(get);
  EXPECT_EQ(applies, 4);
  EXPECT_EQ(applier.next_index(), 4);
}

// ---------------------------------------------------------------------------
// SparseLog storage: the position-indexed slot table against a std::map.
// ---------------------------------------------------------------------------

struct ModelSlot {
  int64_t v = -1;
  std::string tag;  // non-trivial, so a stale or moved cell would show
};

TEST(SparseLogModelTest, RandomOpsAgreeWithAMapReference) {
  using consensus::LogIndex;
  consensus::SparseLog<ModelSlot> log;
  std::map<LogIndex, int64_t> ref;
  LogIndex floor = -1;
  int64_t stamp = 0;
  Rng rng(17);

  // Mostly around the live window; some below its front, some far above
  // its back (capped, so the table stays a few thousand cells wide).
  auto pick = [&]() -> LogIndex {
    const LogIndex base = floor + 1;
    const LogIndex lo = ref.empty() ? base : ref.begin()->first;
    const LogIndex hi = ref.empty() ? base : ref.rbegin()->first;
    switch (rng.below(8)) {
      case 0:
        return std::max(base, lo - rng.range(1, 16));
      case 1:
        return std::min(hi + rng.range(64, 2048), base + 8192);
      default:
        return rng.range(std::max(base, lo - 2), hi + 2);
    }
  };
  auto agrees = [&](LogIndex i) -> ::testing::AssertionResult {
    const ModelSlot* s = std::as_const(log).find(i);
    const auto it = ref.find(i);
    if (it == ref.end()) {
      if (s == nullptr) return ::testing::AssertionSuccess();
      return ::testing::AssertionFailure() << "phantom slot at " << i;
    }
    if (s == nullptr) {
      return ::testing::AssertionFailure() << "lost slot at " << i;
    }
    if (s->v != it->second || s->tag != std::to_string(it->second)) {
      return ::testing::AssertionFailure()
             << "slot " << i << " holds " << s->v << ", want " << it->second;
    }
    return ::testing::AssertionSuccess();
  };

  for (int op = 0; op < 120000; ++op) {
    LogIndex i = floor + 1;
    const uint64_t kind = rng.below(10);
    if (kind < 4) {
      // materialize: a fresh slot is default-constructed, an existing one
      // keeps its value.
      i = pick();
      ModelSlot& s = log.materialize(i);
      const auto it = ref.find(i);
      ASSERT_EQ(s.v, it == ref.end() ? -1 : it->second) << "op " << op;
      s.v = ++stamp;
      s.tag = std::to_string(s.v);
      ref[i] = s.v;
    } else if (kind < 8) {
      // erase at the front, the back, the middle, or (maybe) a hole.
      if (!ref.empty()) {
        switch (rng.below(4)) {
          case 0:
            i = ref.begin()->first;
            break;
          case 1:
            i = ref.rbegin()->first;
            break;
          case 2:
            i = ref.lower_bound(rng.range(ref.begin()->first,
                                          ref.rbegin()->first))
                    ->first;
            break;
          default:
            i = pick();
        }
      }
      log.erase(i);
      ref.erase(i);
    } else if (kind < 9) {
      // set_floor: usually a small raise, sometimes a no-op lowering,
      // sometimes past every slot.
      i = rng.chance(0.05) && !ref.empty()
              ? ref.rbegin()->first + rng.range(0, 3)
              : floor + rng.range(-2, 40);
      std::vector<std::pair<LogIndex, int64_t>> seen;
      log.set_floor(i, [&](LogIndex j, const ModelSlot& s) {
        seen.emplace_back(j, s.v);
      });
      std::vector<std::pair<LogIndex, int64_t>> want;
      if (i > floor) {
        floor = i;
        while (!ref.empty() && ref.begin()->first <= floor) {
          want.emplace_back(*ref.begin());
          ref.erase(ref.begin());
        }
      }
      ASSERT_EQ(seen, want) << "op " << op;
      ASSERT_EQ(log.floor(), floor);
    } else {
      i = pick();  // read-only probe
    }
    ASSERT_EQ(log.size(), ref.size()) << "op " << op;
    ASSERT_EQ(log.empty(), ref.empty());
    for (const LogIndex j : {i - 1, i, i + 1, pick(), floor, floor + 1}) {
      ASSERT_TRUE(agrees(j)) << "op " << op;
    }
    if (!ref.empty()) {
      ASSERT_TRUE(agrees(ref.begin()->first)) << "op " << op;
      ASSERT_TRUE(agrees(ref.rbegin()->first)) << "op " << op;
    }
  }
}

TEST(SlotTableTest, BothEndsStayPresent) {
  consensus::SlotTable<int> t;
  t.materialize(10) = 1;
  t.materialize(14) = 2;
  t.materialize(20) = 3;
  EXPECT_EQ(t.back_index(), 20);
  t.erase(20);  // the back trims across the hole to 14
  EXPECT_EQ(t.back_index(), 14);
  t.erase_after(11);
  EXPECT_EQ(t.back_index(), 10);
  EXPECT_EQ(t.size(), 1u);
  t.erase(10);
  EXPECT_TRUE(t.empty());
  t.materialize(3) = 4;  // an emptied table restarts at any index
  EXPECT_EQ(t.back_index(), 3);
  EXPECT_EQ(*t.find(3), 4);
}

// A cell whose payload counts itself: `live` is the number of payloads that
// some cell still holds.
struct Payload {
  static inline int live = 0;
  Payload() { ++live; }
  ~Payload() { --live; }
  Payload(const Payload&) = delete;
  Payload& operator=(const Payload&) = delete;
};
struct HoldingCell {
  std::shared_ptr<Payload> held;
};

TEST(SlotTableTest, EraseReleasesWhatTheCellHeld) {
  consensus::SlotTable<HoldingCell> t;
  for (const consensus::LogIndex i : {3, 5, 6, 9, 12, 70, 200}) {
    t.materialize(i).held = std::make_shared<Payload>();
  }
  ASSERT_EQ(Payload::live, 7);
  t.erase(6);  // the middle
  EXPECT_EQ(Payload::live, 6);
  t.erase(6);  // a hole: nothing left to release
  EXPECT_EQ(Payload::live, 6);
  int seen = 0;
  t.erase_through(5, [&](consensus::LogIndex, const HoldingCell& c) {
    seen += c.held != nullptr ? 1 : 0;
  });
  EXPECT_EQ(seen, 2);  // each value is still whole when handed over
  EXPECT_EQ(Payload::live, 4);
  t.erase_after(12);  // across two pages above 12's
  EXPECT_EQ(Payload::live, 2);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.back_index(), 12);
  // A re-materialized cell starts empty, not with its old payload.
  EXPECT_EQ(t.materialize(6).held, nullptr);
  EXPECT_EQ(t.materialize(200).held, nullptr);
  t.erase(9);
  t.erase(12);
  EXPECT_EQ(Payload::live, 0);
  EXPECT_EQ(t.size(), 2u);
}

TEST(SlotTableTest, RandomOpsAgreeWithAMapReference) {
  // Every erase path, with indexes spread over many 64-cell pages and below
  // zero, checked after each op against a std::map.
  using consensus::LogIndex;
  consensus::SlotTable<ModelSlot> t;
  std::map<LogIndex, int64_t> ref;
  Rng rng(29);
  for (int op = 0; op < 60000; ++op) {
    const LogIndex i = rng.range(-300, 700);
    switch (rng.below(6)) {
      case 0:
      case 1:
      case 2: {
        ModelSlot& s = t.materialize(i);
        const auto it = ref.find(i);
        ASSERT_EQ(s.v, it == ref.end() ? -1 : it->second) << "op " << op;
        s.v = op;
        s.tag = std::to_string(op);
        ref[i] = op;
        break;
      }
      case 3:
        t.erase(i);
        ref.erase(i);
        break;
      case 4: {
        std::vector<LogIndex> seen;
        t.erase_through(i, [&](LogIndex j, const ModelSlot& s) {
          EXPECT_EQ(s.v, ref.at(j));
          seen.push_back(j);
        });
        std::vector<LogIndex> want;
        while (!ref.empty() && ref.begin()->first <= i) {
          want.push_back(ref.begin()->first);
          ref.erase(ref.begin());
        }
        ASSERT_EQ(seen, want) << "op " << op;
        break;
      }
      default:
        t.erase_after(i);
        ref.erase(ref.upper_bound(i), ref.end());
    }
    ASSERT_EQ(t.size(), ref.size()) << "op " << op;
    ASSERT_EQ(t.empty(), ref.empty()) << "op " << op;
    if (!ref.empty()) {
      ASSERT_EQ(t.back_index(), ref.rbegin()->first) << "op " << op;
    }
    for (const LogIndex j : {i - 1, i, i + 1}) {
      const ModelSlot* s = t.find(j);
      ASSERT_EQ(s != nullptr, ref.count(j) == 1) << "op " << op;
      if (s != nullptr) {
        ASSERT_EQ(s->v, ref.at(j)) << "op " << op;
      }
    }
  }
  std::vector<std::pair<LogIndex, int64_t>> seen;
  t.for_each([&](LogIndex j, const ModelSlot& s) {
    seen.emplace_back(j, s.v);
  });
  EXPECT_EQ(seen, (std::vector<std::pair<LogIndex, int64_t>>(ref.begin(),
                                                              ref.end())));
}

TEST(SlotTableTest, HolesAddNothingToSizeOrForEach) {
  consensus::SlotTable<int> t;
  t.materialize(40) = 40;
  t.materialize(7) = 7;  // below the front
  t.materialize(300) = 300;  // far past the back
  t.materialize(41) = 41;
  t.erase(41);  // a hole where a value was
  EXPECT_EQ(t.size(), 3u);
  std::vector<int> seen;
  t.for_each([&](consensus::LogIndex i, int v) {
    EXPECT_EQ(i, v);
    seen.push_back(v);
  });
  EXPECT_EQ(seen, (std::vector<int>{7, 40, 300}));
  EXPECT_EQ(t.find(41), nullptr);
  EXPECT_EQ(t.find(100), nullptr);
}

TEST(SparseLogModelTest, LiveSlotsNeverMoveAsTheTableGrows) {
  // Protocols hold Instance& / Slot& across later materialize() calls, so
  // growth at either end must leave every live slot where it is.
  using consensus::LogIndex;
  consensus::SparseLog<ModelSlot> log;
  ModelSlot& mid = log.materialize(5000);
  mid.v = 42;
  mid.tag = "held";
  ModelSlot* low = &log.materialize(4000);
  ModelSlot* high = &log.materialize(6000);
  for (LogIndex i = 4999; i >= 1; --i) log.materialize(i).v = i;  // front
  for (LogIndex i = 5001; i <= 40000; ++i) log.materialize(i).v = i;  // back
  log.materialize(500000).v = 7;  // one far jump past the back
  log.erase(1);                   // trims the front
  log.erase(500000);              // trims the back across the far gap
  EXPECT_EQ(log.find(5000), &mid);
  EXPECT_EQ(&log.materialize(5000), &mid);
  EXPECT_EQ(mid.v, 42);
  EXPECT_EQ(mid.tag, "held");
  EXPECT_EQ(log.find(4000), low);
  EXPECT_EQ(low->v, 4000);
  EXPECT_EQ(log.find(6000), high);
  EXPECT_EQ(high->v, 6000);
  EXPECT_EQ(log.size(), 39999u);  // 2..40000
}

// ---------------------------------------------------------------------------
// Protocol registry: all four protocols constructible by name.
// ---------------------------------------------------------------------------

consensus::Group group_of(NodeId self, std::initializer_list<NodeId> members) {
  consensus::Group g;
  g.self = self;
  g.members = members;
  return g;
}

TEST(RegistryTest, ListsTheFourBuiltinProtocols) {
  // Alphabetical: `chaos_runner --protocol=all` and its golden, the recovery
  // bench and the compaction tests run the protocols in this order.
  EXPECT_EQ(consensus::protocol_names(),
            (std::vector<std::string>{"mencius", "multipaxos", "raft",
                                      "raftstar"}));
}

TEST(RegistryTest, UnknownProtocolNameIsAnError) {
  ScriptedEnv env;
  try {
    (void)consensus::make_node("nonexistent", group_of(0, {0, 1, 2}), env);
    ADD_FAILURE() << "an unknown name built a node";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "registered protocols: mencius, multipaxos, raft, raftstar"),
              std::string::npos)
        << e.what();
  }
}

TEST(RegistryTest, InstantiatesAllFourProtocolsByName) {
  for (const char* name : {"raft", "raftstar", "multipaxos", "mencius"}) {
    SCOPED_TRACE(name);
    ScriptedEnv env;
    consensus::TimingOptions timing;
    timing.election_timeout_min = msec(150);
    timing.election_timeout_max = msec(300);
    timing.heartbeat_interval = msec(50);
    timing.batch_delay = 0;
    auto node =
        consensus::make_node(name, group_of(0, {0, 1, 2}), env, timing);
    ASSERT_NE(node, nullptr);
    node->set_apply([](consensus::LogIndex, const kv::Command&) {});
    node->start();
    EXPECT_EQ(node->id(), 0);
    const bool leaderless = std::string(name) == "mencius";
    if (leaderless) {
      // Every Mencius replica leads its own residue class: submissions are
      // always accepted.
      EXPECT_TRUE(node->is_leader());
      EXPECT_GE(node->submit(kv::noop_command()), 0);
    } else {
      // Freshly started leader-based nodes cannot accept submissions yet.
      EXPECT_FALSE(node->is_leader());
      EXPECT_EQ(node->submit(kv::noop_command()), -1);
      // A leadership attempt talks to the peers.
      node->force_election();
      EXPECT_FALSE(env.outbox.empty());
    }
  }
}

TEST(RegistryTest, SingleNodeGroupCommitsThroughTheIface) {
  // End-to-end through NodeIface: a single-node raft group elects itself,
  // accepts a submission, and applies it.
  ScriptedEnv env;
  consensus::TimingOptions timing;
  timing.election_timeout_min = msec(50);
  timing.election_timeout_max = msec(100);
  timing.heartbeat_interval = msec(20);
  timing.batch_delay = 0;
  auto node = consensus::make_node("raft", group_of(7, {7}), env, timing);
  int applies = 0;
  node->set_apply([&](consensus::LogIndex, const kv::Command&) { ++applies; });
  node->start();
  node->force_election();
  ASSERT_TRUE(node->is_leader());
  EXPECT_GE(node->submit(kv::noop_command()), 0);
  env.advance(msec(5));  // batch flush
  EXPECT_GE(applies, 1);
  EXPECT_GE(node->commit_index(), 1);
}

}  // namespace
}  // namespace praft
