#include <gtest/gtest.h>

#include <any>
#include <cstdlib>
#include <variant>
#include <vector>

#include "chaos/runner.h"
#include "common/check.h"
#include "common/rng.h"
#include "consensus/batcher.h"
#include "consensus/timing.h"
#include "harness/wire.h"
#include "kv/command.h"
#include "lease/manager.h"
#include "lease/wire.h"
#include "mencius/wire.h"
#include "net/buffer_pool.h"
#include "net/wire.h"
#include "paxos/wire.h"
#include "raft/node.h"
#include "raft/wire.h"
#include "raftstar/wire.h"
#include "scripted_env.h"
#include "test_util.h"

namespace praft {
namespace {

// ---------------------------------------------------------------------------
// Randomized message generators. Every field is drawn from the full domain
// the protocols use (negative sentinels included) so the round-trip property
// exercises sign handling, empty and non-empty vectors, and the value_size
// payload skip.
// ---------------------------------------------------------------------------

kv::Command rand_cmd(Rng& r) {
  kv::Command c;
  c.op = static_cast<kv::Op>(r.below(3));
  c.key = r.next();
  c.value = r.next();
  c.value_size = static_cast<uint32_t>(r.below(4097));
  c.client = static_cast<NodeId>(r.range(-1, 64));
  c.seq = r.next();
  return c;
}

std::vector<kv::Command> rand_cmds(Rng& r, size_t max_n = 4) {
  std::vector<kv::Command> out(r.below(max_n + 1));
  for (auto& c : out) c = rand_cmd(r);
  return out;
}

consensus::Snapshot rand_snap(Rng& r) {
  consensus::Snapshot s;
  s.last_index = r.range(0, 1 << 20);
  s.last_term = r.range(0, 1 << 10);
  s.state.applied_count = r.next();
  s.state.cells.resize(r.below(4));
  for (auto& cell : s.state.cells) {
    cell = kv::StoreImage::Cell{r.next(), r.next(), r.next()};
  }
  return s;
}

consensus::Ballot rand_ballot(Rng& r) {
  return consensus::Ballot{r.range(-1, 1 << 20),
                           static_cast<NodeId>(r.range(-1, 64))};
}

NodeId rand_node(Rng& r) { return static_cast<NodeId>(r.range(-1, 64)); }

// ---------------------------------------------------------------------------
// The tentpole property, checked four ways for every message m:
//   1. encode(m).size() == wire_size(m)  (the cost model bills exact bytes)
//   2. decode(encode(m)) == m            (the frame is lossless)
//   3. the registry's size, which every send is charged, is wire_size(m)
//   4. the registry round-trip through std::any agrees with (2)
// ---------------------------------------------------------------------------

template <typename Msg, typename Enc, typename Dec>
void expect_roundtrip(const Msg& m, Enc enc, Dec dec, net::BufferPool& pool) {
  const size_t claimed = wire_size(m);
  const net::Frame f = enc(m, pool);
  ASSERT_EQ(f.size(), claimed) << "encoded size != wire_size";
  const Msg back = dec(net::view(f));
  EXPECT_TRUE(m == back) << "decode(encode(m)) != m";

  const net::Codec* codec = net::codec_registry().find(std::any(m));
  ASSERT_NE(codec, nullptr);
  EXPECT_EQ(codec->size(std::any(m)), claimed) << "registry size != wire_size";
  const net::Frame rf = codec->encode(std::any(m), pool);
  ASSERT_EQ(rf.size(), claimed);
  EXPECT_TRUE(codec->equals(std::any(m), codec->decode(net::view(rf))));
}

/// A generator round holds each alternative of its variant exactly once.
template <typename V>
void expect_every_alternative_once(const std::vector<V>& round) {
  ASSERT_EQ(round.size(), std::variant_size_v<V>);
  for (size_t i = 0; i < round.size(); ++i) EXPECT_EQ(round[i].index(), i);
}

// One round of each family's generator: every variant alternative once, in
// opcode order. expect_every_alternative_once enforces it, so a message
// added without a generator entry, which would escape both the round trips
// and WireGolden, fails WireRoundTrip. Messages are built with braced
// initialisers only, whose elements are evaluated left to right, so the RNG
// draws (and hence the frames the golden digest below pins) do not depend
// on the compiler's argument order.

std::vector<raft::Message> raft_msgs(Rng& r) {
  using namespace praft::raft;
  auto e = [&] { return Entry{r.range(0, 999), rand_cmd(r)}; };
  std::vector<Entry> entries(r.below(4));
  for (auto& x : entries) x = e();
  return {
      Message{RequestVote{r.range(0, 999), rand_node(r), r.range(0, 999),
                          r.range(0, 999)}},
      Message{VoteReply{r.range(0, 999), rand_node(r), r.chance(0.5)}},
      Message{AppendEntries{r.range(0, 999), rand_node(r), r.range(0, 999),
                            r.range(0, 999), entries, r.range(0, 999)}},
      Message{AppendReply{r.range(0, 999), rand_node(r), r.chance(0.5),
                          r.range(0, 999), r.range(0, 999)}},
      Message{InstallSnapshot{r.range(0, 999), rand_node(r), rand_snap(r)}},
      Message{InstallSnapshotReply{r.range(0, 999), rand_node(r),
                                   r.range(0, 999)}},
  };
}

std::vector<raftstar::Message> raftstar_msgs(Rng& r) {
  using namespace praft::raftstar;
  std::vector<Entry> entries(r.below(4));
  for (auto& x : entries) x = Entry{r.range(0, 999), rand_cmd(r)};
  VoteReply vr;
  vr.term = r.range(0, 999);
  vr.voter = rand_node(r);
  vr.granted = r.chance(0.5);
  vr.log_bal = r.range(-1, 999);
  vr.extra_from = r.range(0, 999);
  vr.extras = entries;
  vr.has_snap = r.chance(0.5);
  if (vr.has_snap) vr.snap = rand_snap(r);
  AppendReply ar;
  ar.term = r.range(0, 999);
  ar.follower = rand_node(r);
  ar.ok = r.chance(0.5);
  ar.match_index = r.range(0, 999);
  ar.follower_last = r.range(0, 999);
  ar.conflict_hint = r.range(0, 999);
  ar.piggyback_ids.resize(r.below(4));
  for (auto& id : ar.piggyback_ids) id = rand_node(r);
  return {
      Message{RequestVote{r.range(0, 999), rand_node(r), r.range(0, 999),
                          r.range(0, 999)}},
      Message{vr},
      Message{AppendEntries{r.range(0, 999), rand_node(r), r.range(0, 999),
                            r.range(0, 999), entries, r.range(0, 999)}},
      Message{ar},
      Message{InstallSnapshot{r.range(0, 999), rand_node(r), rand_snap(r)}},
      Message{InstallSnapshotReply{r.range(0, 999), rand_node(r),
                                   r.range(0, 999)}},
  };
}

std::vector<paxos::Message> paxos_msgs(Rng& r) {
  using namespace praft::paxos;
  PrepareOk pok;
  pok.bal = rand_ballot(r);
  pok.sender = rand_node(r);
  pok.accepted.resize(r.below(4));
  for (auto& a : pok.accepted) {
    a = AcceptedVal{r.range(0, 999), rand_ballot(r), rand_cmd(r)};
  }
  pok.has_snap = r.chance(0.5);
  if (pok.has_snap) pok.snap = rand_snap(r);
  return {
      Message{Prepare{rand_ballot(r), rand_node(r), r.range(1, 999)}},
      Message{pok},
      Message{AcceptBatch{rand_ballot(r), rand_node(r), r.range(0, 999),
                          rand_cmds(r), r.range(0, 999)}},
      Message{AcceptOkBatch{rand_ballot(r), rand_node(r), r.range(0, 999),
                            r.range(0, 999)}},
      Message{Reject{rand_ballot(r), rand_node(r)}},
      Message{Heartbeat{rand_ballot(r), rand_node(r), r.range(0, 999)}},
      Message{LearnRequest{rand_node(r), r.range(0, 999), r.range(0, 999)}},
      Message{LearnValues{rand_node(r), r.range(0, 999), rand_cmds(r)}},
      Message{SnapshotTransfer{rand_node(r), rand_snap(r)}},
  };
}

std::vector<mencius::Message> mencius_msgs(Rng& r) {
  using namespace praft::mencius;
  auto items = [&] {
    std::vector<OwnItem> out(r.below(4));
    for (auto& x : out) x = OwnItem{r.range(0, 999), rand_cmd(r)};
    return out;
  };
  auto indexes = [&] {
    std::vector<consensus::LogIndex> out(r.below(4));
    for (auto& x : out) x = r.range(0, 999);
    return out;
  };
  LearnVals lv;
  lv.from = rand_node(r);
  lv.slots.resize(r.below(4));
  for (auto& s : lv.slots) {
    s = SlotInfo{r.range(0, 999), r.chance(0.5), rand_cmd(r)};
  }
  RevPrepareOk rpo;
  rpo.from = rand_node(r);
  rpo.bal = rand_ballot(r);
  rpo.accepted.resize(r.below(4));
  for (auto& a : rpo.accepted) {
    a = RevAccepted{r.range(0, 999), rand_ballot(r), r.chance(0.5),
                    r.chance(0.5), rand_cmd(r)};
  }
  return {
      Message{AcceptOwn{rand_node(r), items(), r.range(0, 999),
                        r.range(-1, 999)}},
      Message{AcceptOwnOk{rand_node(r), indexes()}},
      Message{AcceptOwnRej{rand_node(r), indexes(), r.range(0, 999)}},
      Message{SkipRange{rand_node(r), r.range(0, 999), r.range(0, 999)}},
      Message{StatusBeat{rand_node(r), r.range(0, 999), r.range(0, 999),
                         r.range(-1, 999)}},
      Message{LearnReq{rand_node(r), r.range(0, 999), r.range(0, 999)}},
      Message{lv},
      Message{RevPrepare{rand_node(r), rand_ballot(r), rand_node(r),
                         r.range(0, 999), r.range(0, 999)}},
      Message{rpo},
      Message{RevAccept{rand_node(r), rand_ballot(r), items()}},
      Message{RevAcceptOk{rand_node(r), rand_ballot(r), indexes()}},
      Message{SnapshotXfer{rand_node(r), rand_snap(r)}},
  };
}

std::vector<harness::Message> harness_msgs(Rng& r) {
  using namespace praft::harness;
  return {
      Message{ClientRequest{rand_cmd(r)}},
      Message{ClientReply{r.next(), r.next(), r.chance(0.5), rand_node(r)}},
      Message{Forward{rand_cmd(r), rand_node(r)}},
      Message{ForwardReply{rand_cmd(r), r.next(), r.chance(0.5)}},
  };
}

std::vector<lease::Message> lease_msgs(Rng& r) {
  using namespace praft::lease;
  return {
      Message{Grant{rand_node(r), rand_node(r), r.range(0, 1 << 30)}},
      Message{GrantAck{rand_node(r), r.range(0, 1 << 30)}},
  };
}

constexpr int kRounds = 50;

TEST(WireRoundTrip, Raft) {
  Rng r(101);
  net::BufferPool pool;
  for (int it = 0; it < kRounds; ++it) {
    const auto round = raft_msgs(r);
    expect_every_alternative_once(round);
    for (const auto& m : round) {
      expect_roundtrip(m, &raft::encode, &raft::decode, pool);
    }
  }
}

TEST(WireRoundTrip, RaftStar) {
  Rng r(202);
  net::BufferPool pool;
  for (int it = 0; it < kRounds; ++it) {
    const auto round = raftstar_msgs(r);
    expect_every_alternative_once(round);
    for (const auto& m : round) {
      expect_roundtrip(m, &raftstar::encode, &raftstar::decode, pool);
    }
  }
}

TEST(WireRoundTrip, Paxos) {
  Rng r(303);
  net::BufferPool pool;
  for (int it = 0; it < kRounds; ++it) {
    const auto round = paxos_msgs(r);
    expect_every_alternative_once(round);
    for (const auto& m : round) {
      expect_roundtrip(m, &paxos::encode, &paxos::decode, pool);
    }
  }
}

TEST(WireRoundTrip, Mencius) {
  Rng r(404);
  net::BufferPool pool;
  for (int it = 0; it < kRounds; ++it) {
    const auto round = mencius_msgs(r);
    expect_every_alternative_once(round);
    for (const auto& m : round) {
      expect_roundtrip(m, &mencius::encode, &mencius::decode, pool);
    }
  }
}

TEST(WireRoundTrip, HarnessAndLease) {
  Rng r(505);
  net::BufferPool pool;
  for (int it = 0; it < kRounds; ++it) {
    const auto harness_round = harness_msgs(r);
    expect_every_alternative_once(harness_round);
    for (const auto& m : harness_round) {
      expect_roundtrip(m, &harness::encode, &harness::decode, pool);
    }
    const auto lease_round = lease_msgs(r);
    expect_every_alternative_once(lease_round);
    for (const auto& m : lease_round) {
      expect_roundtrip(m, &lease::encode, &lease::decode, pool);
    }
  }
}

// ---------------------------------------------------------------------------
// The round trips above pass for a codec that swaps two same-width fields in
// both directions, and chaos fingerprints hash observations, not bytes. This
// pins the bytes themselves: a per-family FNV-1a 64 digest over every frame
// of the round-trip generators. Each message is encoded into a fresh pool, so
// the modeled payload regions a command skips read as zero rather than as a
// reused slab's stale bytes. A layout change must change these literals on
// purpose.
// ---------------------------------------------------------------------------

struct Fnv1a {
  uint64_t h = 0xcbf29ce484222325ull;

  template <typename Msg>
  void add(const Msg& m, net::Frame (*enc)(const Msg&, net::BufferPool&)) {
    net::BufferPool pool(1, 64);
    const net::Frame f = enc(m, pool);
    for (size_t i = 0; i < f.size(); ++i) {
      h ^= f.data()[i];
      h *= 0x100000001b3ull;
    }
  }
};

TEST(WireGolden, FrameBytesArePinned) {
  Fnv1a raft_d, raftstar_d, paxos_d, mencius_d, harness_d, lease_d;
  Rng r1(101), r2(202), r3(303), r4(404), r5(505);
  for (int it = 0; it < kRounds; ++it) {
    for (const auto& m : raft_msgs(r1)) raft_d.add(m, &raft::encode);
    for (const auto& m : raftstar_msgs(r2)) {
      raftstar_d.add(m, &raftstar::encode);
    }
    for (const auto& m : paxos_msgs(r3)) paxos_d.add(m, &paxos::encode);
    for (const auto& m : mencius_msgs(r4)) {
      mencius_d.add(m, &mencius::encode);
    }
    for (const auto& m : harness_msgs(r5)) {
      harness_d.add(m, &harness::encode);
    }
    for (const auto& m : lease_msgs(r5)) lease_d.add(m, &lease::encode);
  }
  EXPECT_EQ(raft_d.h, 0xe225043d114759fdull);
  EXPECT_EQ(raftstar_d.h, 0xf936ee48c45df469ull);
  EXPECT_EQ(paxos_d.h, 0x415be061aab54706ull);
  EXPECT_EQ(mencius_d.h, 0x01980d51d71ad3b0ull);
  EXPECT_EQ(harness_d.h, 0xe6216e4b7d6a6556ull);
  EXPECT_EQ(lease_d.h, 0xc2c81cc93ddc2ff0ull);
}

// kv::Command::operator== deliberately ignores value_size (two puts with the
// same token are the same op for agreement checking), so the lossless-frame
// property above cannot see a value_size corruption. Check it explicitly:
// the modeled payload size must survive the round trip — it is what the
// byte-accurate cost model bills for.
TEST(WireRoundTrip, ValueSizeSurvivesExactly) {
  net::BufferPool pool;
  for (uint32_t vs : {0u, 8u, 100u, 4096u}) {
    kv::Command c;
    c.op = kv::Op::kPut;
    c.key = 7;
    c.value = 9;
    c.value_size = vs;
    c.client = 3;
    c.seq = 11;
    const harness::Message m{harness::ClientRequest{c}};
    const net::Frame f = harness::encode(m, pool);
    EXPECT_EQ(f.size(), harness::wire_size(m));
    const auto back = harness::decode(net::view(f));
    const auto& req = std::get<harness::ClientRequest>(back);
    EXPECT_EQ(req.cmd.value_size, vs);
  }
}

TEST(WireRegistry, EveryFamilyInstalled) {
  auto& reg = net::codec_registry();
  for (net::Family fam :
       {net::Family::kRaft, net::Family::kRaftStar, net::Family::kMultiPaxos,
        net::Family::kMencius, net::Family::kHarness, net::Family::kLease}) {
    EXPECT_NE(reg.find(fam), nullptr)
        << "family " << static_cast<int>(fam) << " missing";
  }
  EXPECT_EQ(reg.find(std::any(42)), nullptr);  // foreign payloads: no codec
}

TEST(WireFrame, HeaderFieldsAreFixedOffset) {
  net::BufferPool pool;
  const raft::Message m{raft::VoteReply{5, 2, true}};
  const net::Frame f = raft::encode(m, pool);
  EXPECT_EQ(net::frame_family(net::view(f)), net::Family::kRaft);
  EXPECT_EQ(net::frame_opcode(net::view(f)), 1);  // variant alternative index
  // Total length is patched into the header at finish().
  const uint8_t* d = f.data();
  const uint32_t len = static_cast<uint32_t>(d[net::kOffLength]) |
                       (static_cast<uint32_t>(d[net::kOffLength + 1]) << 8) |
                       (static_cast<uint32_t>(d[net::kOffLength + 2]) << 16) |
                       (static_cast<uint32_t>(d[net::kOffLength + 3]) << 24);
  EXPECT_EQ(len, f.size());
}

// ---------------------------------------------------------------------------
// Buffer pool units: reuse, growth, exhaustion, reset.
// ---------------------------------------------------------------------------

TEST(BufferPool, SteadyStateReusesWithoutSlabAllocs) {
  net::BufferPool pool(/*frames=*/8, /*frame_capacity=*/256);
  for (int i = 0; i < 1000; ++i) {
    net::Frame f = pool.acquire(100);
    ASSERT_GE(f.capacity(), 100u);
  }  // each frame returns to the freelist at scope exit
  const net::PoolStats st = pool.stats();
  EXPECT_EQ(st.slab_allocs, 0u) << "steady state must not allocate";
  EXPECT_EQ(st.acquires, 1000u);
  EXPECT_EQ(st.reuses, 1000u);
  EXPECT_EQ(st.outstanding, 0u);
  EXPECT_EQ(st.high_water, 1u);
}

TEST(BufferPool, ExhaustionGrowsAndKeepsFramesStable) {
  net::BufferPool pool(/*frames=*/2, /*frame_capacity=*/64);
  std::vector<net::Frame> held;
  for (int i = 0; i < 10; ++i) held.push_back(pool.acquire(32));
  const net::PoolStats st = pool.stats();
  EXPECT_EQ(st.outstanding, 10u);
  EXPECT_EQ(st.high_water, 10u);
  EXPECT_EQ(st.slab_allocs, 8u);  // 2 preallocated + 8 grown on demand
  for (auto& f : held) {
    ASSERT_NE(f.data(), nullptr);
    f.data()[0] = 0xAB;  // every slab stays writable while held
  }
  held.clear();
  EXPECT_EQ(pool.stats().outstanding, 0u);
  EXPECT_EQ(pool.free_frames(), 10u);  // grown slabs join the freelist
}

TEST(BufferPool, OversizedRequestGrowsSlab) {
  net::BufferPool pool(/*frames=*/2, /*frame_capacity=*/64);
  {
    net::Frame f = pool.acquire(5000);  // bigger than frame_capacity
    EXPECT_GE(f.capacity(), 5000u);
  }
  EXPECT_GE(pool.stats().slab_grows, 1u);
  // The grown slab is reused at its grown capacity: no second grow.
  const uint64_t grows = pool.stats().slab_grows;
  { net::Frame f = pool.acquire(5000); }
  EXPECT_EQ(pool.stats().slab_grows, grows);
}

TEST(BufferPool, ResetRestoresPreallocationAndClearsStats) {
  net::BufferPool pool(/*frames=*/4, /*frame_capacity=*/64);
  { net::Frame f = pool.acquire(32); }
  pool.reset();
  const net::PoolStats st = pool.stats();
  EXPECT_EQ(st.acquires, 0u);
  EXPECT_EQ(st.reuses, 0u);
  EXPECT_EQ(st.outstanding, 0u);
  EXPECT_EQ(pool.free_frames(), 4u);
}

TEST(BufferPool, ResetWithOutstandingFramesIsAnError) {
  net::BufferPool pool(/*frames=*/2, /*frame_capacity=*/64);
  net::Frame f = pool.acquire(32);
  EXPECT_THROW(pool.reset(), CheckFailure);
}

// ---------------------------------------------------------------------------
// Batcher: byte-budget expedite and the epoch/cancel guard.
// ---------------------------------------------------------------------------

consensus::TimingOptions batch_opt() {
  consensus::TimingOptions o;
  o.batch_delay = msec(5);
  o.batch_flush_bytes = 1000;
  return o;
}

TEST(Batcher, FlushesOnceAfterDelay) {
  test::ScriptedEnv env;
  int flushes = 0;
  consensus::Batcher b(env, batch_opt(), [&] { ++flushes; });
  b.add_pending(10);
  b.add_pending(10);  // second submit rides the same armed flush
  EXPECT_EQ(b.pending_bytes(), 20u);
  env.advance(msec(4));
  EXPECT_EQ(flushes, 0);
  env.advance(msec(2));
  EXPECT_EQ(flushes, 1);
  EXPECT_EQ(b.pending_bytes(), 0u);
  EXPECT_EQ(b.inflight_bytes(), 20u);
}

TEST(Batcher, ByteBudgetExpeditesFlush) {
  test::ScriptedEnv env;
  int flushes = 0;
  consensus::Batcher b(env, batch_opt(), [&] { ++flushes; });
  b.add_pending(400);
  b.add_pending(700);  // crosses batch_flush_bytes=1000: expedite to now
  env.advance(0);
  EXPECT_EQ(flushes, 1);
  EXPECT_EQ(b.expedited_flushes(), 1u);
  // The abandoned delay timer fires later but its epoch is stale: no double
  // flush, and nothing pending gets lost.
  env.advance(msec(10));
  EXPECT_EQ(flushes, 1);
}

TEST(Batcher, CancelInvalidatesArmedFlush) {
  test::ScriptedEnv env;
  int flushes = 0;
  consensus::Batcher b(env, batch_opt(), [&] { ++flushes; });
  b.add_pending(10);
  b.cancel();  // deposed leader / crashed node
  env.advance(msec(50));
  EXPECT_EQ(flushes, 0);
  EXPECT_EQ(b.pending_bytes(), 0u);
  // The batcher is reusable after a cancel (re-elected leader).
  b.add_pending(10);
  env.advance(msec(10));
  EXPECT_EQ(flushes, 1);
}

// Regression for the deposed-leader race: a Raft leader arms a batched
// flush, is deposed before the delay elapses, and the stale flush must not
// replicate against the new term's state.
TEST(Batcher, DeposedRaftLeaderFlushIsInert) {
  test::ScriptedEnv env;
  raft::Options opt;
  opt.election_timeout_min = msec(150);
  opt.election_timeout_max = msec(300);
  opt.heartbeat_interval = msec(40);
  opt.batch_delay = msec(5);
  consensus::Group g;
  g.self = 0;
  g.members = {0, 1, 2};
  raft::RaftNode node(g, env, opt);
  node.start();
  env.advance(msec(400));  // election timeout: candidate at some term t
  ASSERT_EQ(node.role(), raft::Role::kCandidate);
  const consensus::Term t = node.current_term();
  node.on_packet(
      test::packet(1, 0, 0, raft::Message{raft::VoteReply{t, 1, true}}));
  ASSERT_TRUE(node.is_leader());
  ASSERT_GE(node.submit(kv::Command{kv::Op::kPut, 1, 2, 8, 3, 4}), 0);
  env.clear();
  // Higher-term append deposes the leader while its flush is still armed.
  raft::AppendEntries ae;
  ae.term = t + 1;
  ae.leader = 2;
  ae.prev_index = 0;
  ae.prev_term = 0;
  ae.commit = 0;
  node.on_packet(test::packet(2, 0, 0, raft::Message{ae}));
  ASSERT_FALSE(node.is_leader());
  env.clear();
  env.advance(msec(20));  // past the armed batch_delay
  for (const auto& sent : env.outbox) {
    const auto* m = std::any_cast<raft::Message>(&sent.payload);
    ASSERT_TRUE(m == nullptr ||
                !std::holds_alternative<raft::AppendEntries>(*m))
        << "stale flush replicated after deposition";
  }
}

// ---------------------------------------------------------------------------
// End-to-end: a chaos run with PRAFT_WIRE_VERIFY on encodes every frame the
// simulated network carries, checks its size against the bytes charged and
// cross-checks its decode against the original struct. Any drift between
// wire_size(), encode(), and decode() aborts. A default run builds no
// frame, so these passes are the suite's only encode of chaos traffic. The
// second adds crash-restarts and compaction at a seed where every protocol
// installs a snapshot, so snapshot-carrying frames, which a run without
// compaction never sends, are encoded too.
// ---------------------------------------------------------------------------

TEST(WireVerify, ChaosSmokeAllProtocols) {
  const bool prev = net::wire_verify_enabled();
  net::set_wire_verify(true);
  for (const bool restarts : {false, true}) {
    for (const char* protocol : {"raft", "raftstar", "multipaxos", "mencius"}) {
      chaos::RunOptions opt;
      opt.protocol = protocol;
      opt.seed = 3;
      if (restarts) {
        opt.seed = 10;
        opt.crash_restarts = true;
        opt.compaction_log_cap = 64;
      }
      const chaos::RunResult res = chaos::run_one(opt);
      EXPECT_TRUE(res.ok) << protocol << (restarts ? " (restarts)" : "")
                          << ": "
                          << (res.violations.empty() ? "?"
                                                     : res.violations[0]);
      EXPECT_GT(res.client_ops, 0u);
      if (restarts) {
        EXPECT_GT(res.snapshot_installs, 0u) << protocol;
      }
    }
  }
  net::set_wire_verify(prev);
}

}  // namespace
}  // namespace praft
