#include <gtest/gtest.h>

#include <map>

#include "mencius/node.h"
#include "mencius/server.h"
#include "scripted_env.h"
#include "test_util.h"

namespace praft {
namespace {

using test::ApplyRecord;

consensus::Group group_of(NodeId self, std::initializer_list<NodeId> members) {
  consensus::Group g;
  g.self = self;
  g.members = members;
  return g;
}

mencius::Options unit_options() {
  mencius::Options o;
  o.batch_delay = 0;
  o.heartbeat_interval = msec(50);
  o.revoke_timeout = msec(600);
  o.learn_after = msec(100);
  return o;
}

// ---------------------------------------------------------------------------
// Unit tests on MenciusNode.
// ---------------------------------------------------------------------------

TEST(MenciusUnitTest, OwnSlotsAreResidueClass) {
  test::ScriptedEnv env;
  mencius::MenciusNode n(group_of(11, {10, 11, 12}), env, unit_options());
  n.start();
  EXPECT_EQ(n.rank(), 1);
  EXPECT_EQ(n.submit(kv::Command{kv::Op::kPut, 1, 1, 8, 0, 1}), 1);
  EXPECT_EQ(n.submit(kv::Command{kv::Op::kPut, 2, 2, 8, 0, 2}), 4);
  EXPECT_EQ(n.submit(kv::Command{kv::Op::kPut, 3, 3, 8, 0, 3}), 7);
  EXPECT_EQ(n.owner_of(4), 11);
  EXPECT_EQ(n.owner_of(5), 12);
}

TEST(MenciusUnitTest, SeeingOthersSlotsSkipsOwnTurns) {
  test::ScriptedEnv env;
  mencius::MenciusNode n(group_of(10, {10, 11, 12}), env, unit_options());
  n.start();
  // Owner 11 proposes at slot 7 (its third turn); we should cede slots 0, 3
  // and 6 and broadcast the skip.
  mencius::AcceptOwn ao;
  ao.owner = 11;
  ao.items = {mencius::OwnItem{7, kv::Command{kv::Op::kPut, 5, 5, 8, 9, 1}}};
  n.on_packet(test::packet(11, 10, 64, mencius::Message{ao}));
  EXPECT_EQ(n.slots_skipped(), 3);
  EXPECT_EQ(n.next_own(), 9);
  env.advance(msec(5));  // flush
  bool skip_seen = false;
  for (const auto& s : env.outbox) {
    const auto* m = std::any_cast<mencius::Message>(&s.payload);
    if (m == nullptr) continue;
    if (const auto* sr = std::get_if<mencius::SkipRange>(m)) {
      skip_seen = true;
      EXPECT_EQ(sr->lo, 0);
      EXPECT_EQ(sr->hi, 7);
    }
  }
  EXPECT_TRUE(skip_seen);
}

TEST(MenciusUnitTest, QuorumAcksDecideOwnSlot) {
  test::ScriptedEnv env;
  mencius::MenciusNode n(group_of(10, {10, 11, 12}), env, unit_options());
  std::vector<kv::Command> acked;
  n.set_acked([&](const kv::Command& c) { acked.push_back(c); });
  std::vector<consensus::LogIndex> applied;
  n.set_apply([&](consensus::LogIndex i, const kv::Command&) {
    applied.push_back(i);
  });
  n.start();
  const kv::Command c{kv::Op::kPut, 1, 1, 8, 0, 1};
  ASSERT_EQ(n.submit(c), 0);
  mencius::AcceptOwnOk ok;
  ok.acceptor = 11;
  ok.indexes = {0};
  n.on_packet(test::packet(11, 10, 48, mencius::Message{ok}));
  // Majority (self + 11) reached: decided; slot 0 has no predecessors so it
  // executes AND acks.
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(applied[0], 0);
  ASSERT_EQ(acked.size(), 1u);
  EXPECT_TRUE(acked[0] == c);
}

TEST(MenciusUnitTest, CommutativeOpAckedBeforeExecution) {
  test::ScriptedEnv env;
  mencius::MenciusNode n(group_of(11, {10, 11, 12}), env, unit_options());
  std::vector<kv::Command> acked;
  n.set_acked([&](const kv::Command& c) { acked.push_back(c); });
  std::vector<consensus::LogIndex> applied;
  n.set_apply([&](consensus::LogIndex i, const kv::Command&) {
    applied.push_back(i);
  });
  n.start();
  // Owner 10's slot 0 holds a DIFFERENT key, not yet decided (no watermark).
  mencius::AcceptOwn ao;
  ao.owner = 10;
  ao.items = {mencius::OwnItem{0, kv::Command{kv::Op::kPut, 77, 1, 8, 9, 1}}};
  n.on_packet(test::packet(10, 11, 64, mencius::Message{ao}));
  // Our op on key 5 lands at slot 1.
  const kv::Command mine{kv::Op::kPut, 5, 2, 8, 0, 1};
  ASSERT_EQ(n.submit(mine), 1);
  mencius::AcceptOwnOk ok;
  ok.acceptor = 12;
  ok.indexes = {1};
  n.on_packet(test::packet(12, 11, 48, mencius::Message{ok}));
  // Slot 0 is valued-but-undecided: cannot execute slot 1, but the keys
  // commute, so the client is acked early (the Mencius optimization).
  EXPECT_TRUE(applied.empty());
  ASSERT_EQ(acked.size(), 1u);
  EXPECT_TRUE(acked[0] == mine);
}

TEST(MenciusUnitTest, ConflictingOpWaitsForExecution) {
  test::ScriptedEnv env;
  mencius::MenciusNode n(group_of(11, {10, 11, 12}), env, unit_options());
  std::vector<kv::Command> acked;
  n.set_acked([&](const kv::Command& c) { acked.push_back(c); });
  std::vector<consensus::LogIndex> applied;
  n.set_apply([&](consensus::LogIndex i, const kv::Command&) {
    applied.push_back(i);
  });
  n.start();
  // Owner 10's slot 0 holds the SAME key (undecided).
  mencius::AcceptOwn ao;
  ao.owner = 10;
  ao.items = {mencius::OwnItem{0, kv::Command{kv::Op::kPut, 5, 1, 8, 9, 1}}};
  n.on_packet(test::packet(10, 11, 64, mencius::Message{ao}));
  const kv::Command mine{kv::Op::kPut, 5, 2, 8, 0, 1};
  ASSERT_EQ(n.submit(mine), 1);
  mencius::AcceptOwnOk ok;
  ok.acceptor = 12;
  ok.indexes = {1};
  n.on_packet(test::packet(12, 11, 48, mencius::Message{ok}));
  EXPECT_TRUE(acked.empty());  // conflicting: must wait for slot 0
  // Slot 0 decides via owner 10's watermark; now both execute and ack fires.
  mencius::StatusBeat sb;
  sb.from = 10;
  sb.next_own = 3;
  sb.decided_floor = 3;
  sb.rev_floor = -1;
  n.on_packet(test::packet(10, 11, 40, mencius::Message{sb}));
  ASSERT_EQ(acked.size(), 1u);
  EXPECT_TRUE(acked[0] == mine);
  EXPECT_EQ(applied, (std::vector<consensus::LogIndex>{0, 1}));

  // Both key-5 puts executed, so the key's conflict count is back at zero:
  // a second put on it early-acks behind valued slots of other keys.
  ao.items = {mencius::OwnItem{3, kv::Command{kv::Op::kPut, 77, 3, 8, 9, 2}}};
  n.on_packet(test::packet(10, 11, 64, mencius::Message{ao}));
  mencius::AcceptOwn from12;
  from12.owner = 12;
  from12.items = {
      mencius::OwnItem{2, kv::Command{kv::Op::kPut, 88, 4, 8, 9, 3}}};
  n.on_packet(test::packet(12, 11, 64, mencius::Message{from12}));
  const kv::Command again{kv::Op::kPut, 5, 5, 8, 0, 2};
  ASSERT_EQ(n.submit(again), 4);
  ok.indexes = {4};
  n.on_packet(test::packet(12, 11, 48, mencius::Message{ok}));
  ASSERT_EQ(acked.size(), 2u);
  EXPECT_TRUE(acked[1] == again);
  EXPECT_EQ(applied.size(), 2u);  // slots 2 and 3 are still undecided
}

// Scans the outbox for the decided floor carried by the latest StatusBeat.
consensus::LogIndex beat_floor(const test::ScriptedEnv& env) {
  consensus::LogIndex floor = -1;
  for (const auto& sent : env.outbox) {
    const auto* m = std::any_cast<mencius::Message>(&sent.payload);
    if (m == nullptr) continue;
    if (const auto* sb = std::get_if<mencius::StatusBeat>(m)) {
      floor = sb->decided_floor;
    }
  }
  return floor;
}

TEST(MenciusUnitTest, DecidedFloorWaitsForOwnGapThenJumpsPastRun) {
  test::ScriptedEnv env;
  mencius::MenciusNode n(group_of(10, {10, 11, 12}), env, unit_options());
  n.start();
  for (uint64_t k = 0; k < 4; ++k) {
    EXPECT_EQ(n.submit(kv::Command{kv::Op::kPut, k, k, 8, 0, k + 1}),
              static_cast<consensus::LogIndex>(3 * k));
  }
  mencius::AcceptOwnOk ok;
  ok.acceptor = 11;
  ok.indexes = {0};
  n.on_packet(test::packet(11, 10, 48, mencius::Message{ok}));  // executes
  // Own slots 6 and 9 decide ahead of slot 3.
  ok.indexes = {6, 9};
  n.on_packet(test::packet(11, 10, 48, mencius::Message{ok}));
  env.clear();
  env.advance(msec(50));  // status beat
  EXPECT_EQ(beat_floor(env), 3);
  // The gap fills: the floor passes the whole decided run to next_own.
  ok.indexes = {3};
  n.on_packet(test::packet(11, 10, 48, mencius::Message{ok}));
  env.clear();
  env.advance(msec(50));
  EXPECT_EQ(beat_floor(env), 12);
  EXPECT_EQ(n.next_own(), 12);
}

TEST(MenciusUnitTest, LateAcceptBelowPublishedOwnerFloorAutoDecides) {
  test::ScriptedEnv env;
  mencius::MenciusNode n(group_of(11, {10, 11, 12}), env, unit_options());
  std::vector<consensus::LogIndex> applied;
  n.set_apply([&](consensus::LogIndex i, const kv::Command&) {
    applied.push_back(i);
  });
  n.start();
  // Owner 10 decided its slots 0 and 3; its status beat overtakes the
  // AcceptOwn that carries them, and peer 12 skips its turns below 6.
  mencius::StatusBeat sb;
  sb.from = 10;
  sb.next_own = 6;
  sb.decided_floor = 6;
  n.on_packet(test::packet(10, 11, 40, mencius::Message{sb}));
  n.on_packet(test::packet(12, 11, 40,
                           mencius::Message{mencius::SkipRange{12, 0, 6}}));
  EXPECT_TRUE(applied.empty());
  // The accept lands below the floor already published: both values are
  // decided, our own turn at slot 1 is skipped, and slots 0-3 execute.
  mencius::AcceptOwn ao;
  ao.owner = 10;
  ao.items = {mencius::OwnItem{0, kv::Command{kv::Op::kPut, 1, 1, 8, 9, 1}},
              mencius::OwnItem{3, kv::Command{kv::Op::kPut, 2, 2, 8, 9, 2}}};
  n.on_packet(test::packet(10, 11, 64, mencius::Message{ao}));
  EXPECT_EQ(applied, (std::vector<consensus::LogIndex>{0, 1, 2, 3}));
}

TEST(MenciusUnitTest, SkipRangeDecidesForeignSlots) {
  test::ScriptedEnv env;
  mencius::MenciusNode n(group_of(11, {10, 11, 12}), env, unit_options());
  std::vector<consensus::LogIndex> applied;
  n.set_apply([&](consensus::LogIndex i, const kv::Command&) {
    applied.push_back(i);
  });
  n.start();
  // Skips from owners 10 and 12 covering their slots below 3, plus our own
  // proposal at slot 1 — the full prefix becomes executable.
  const kv::Command mine{kv::Op::kPut, 5, 2, 8, 0, 1};
  n.submit(mine);
  mencius::AcceptOwnOk ok;
  ok.acceptor = 10;
  ok.indexes = {1};
  n.on_packet(test::packet(10, 11, 48, mencius::Message{ok}));
  n.on_packet(test::packet(10, 11, 40,
                           mencius::Message{mencius::SkipRange{10, 0, 3}}));
  n.on_packet(test::packet(12, 11, 40,
                           mencius::Message{mencius::SkipRange{12, 0, 3}}));
  ASSERT_EQ(applied.size(), 3u);  // slots 0,1,2
}

// Mencius keeps only the newest executed decisions in its history. With
// compaction off no checkpoint exists yet, so an executed slot older than the
// history can be taught only by a checkpoint taken on demand.

constexpr consensus::LogIndex kPastHistory = 70'000;

/// Teaches node 10 kPastHistory decided slots in one LearnVals, which it
/// executes: the oldest have aged out of its decision history.
void execute_past_history(mencius::MenciusNode& n, test::ScriptedEnv& env) {
  mencius::LearnVals lv;
  lv.from = 11;
  for (consensus::LogIndex i = 0; i < kPastHistory; ++i) {
    const auto k = static_cast<uint64_t>(i);
    lv.slots.push_back(mencius::SlotInfo{
        i, false, kv::Command{kv::Op::kPut, k % 64, k, 8, 11, k + 1}});
  }
  n.on_packet(test::packet(11, 10, 0, mencius::Message{lv}));
  ASSERT_EQ(n.applied_index(), kPastHistory - 1);
  env.clear();
}

std::vector<mencius::Message> sent_to(test::ScriptedEnv& env, NodeId to) {
  std::vector<mencius::Message> out;
  for (const auto& s : env.take_for(to)) {
    if (const auto* m = std::any_cast<mencius::Message>(&s.payload)) {
      out.push_back(*m);
    }
  }
  return out;
}

TEST(MenciusUnitTest, AgedOutDecisionIsTaughtWithACheckpoint) {
  test::ScriptedEnv env;
  kv::KvStore store;
  mencius::MenciusNode n(group_of(10, {10, 11, 12}), env, unit_options());
  test::attach_store(n, store);
  n.start();
  execute_past_history(n, env);
  n.on_packet(test::packet(12, 10, 0,
                           mencius::Message{mencius::LearnReq{12, 0, 256}}));
  const auto sent = sent_to(env, 12);
  ASSERT_EQ(sent.size(), 1u);
  const auto* sx = std::get_if<mencius::SnapshotXfer>(&sent[0]);
  ASSERT_NE(sx, nullptr);
  EXPECT_EQ(sx->snap.last_index, kPastHistory - 1);
}

TEST(MenciusUnitTest, RevokerOfAnAgedOutDecisionGetsNoPromise) {
  // An ok that omits an executed slot would let the revoker choose a no-op
  // over an applied value (P2c). The prepare is refused: with state hooks
  // the revoker gets the checkpoint instead, without them nothing.
  for (const bool hooks : {true, false}) {
    test::ScriptedEnv env;
    kv::KvStore store;
    mencius::MenciusNode n(group_of(10, {10, 11, 12}), env, unit_options());
    if (hooks) test::attach_store(n, store);
    n.start();
    execute_past_history(n, env);
    n.on_packet(test::packet(
        12, 10, 0,
        mencius::Message{mencius::RevPrepare{12, consensus::Ballot{1, 12},
                                             11, 0, 300}}));
    const auto sent = sent_to(env, 12);
    ASSERT_EQ(sent.size(), hooks ? 1u : 0u) << "hooks=" << hooks;
    if (hooks) {
      const auto* sx = std::get_if<mencius::SnapshotXfer>(&sent[0]);
      ASSERT_NE(sx, nullptr);
      EXPECT_EQ(sx->snap.last_index, kPastHistory - 1);
    }
  }
}

// ---------------------------------------------------------------------------
// Cluster-level tests.
// ---------------------------------------------------------------------------

harness::Cluster::ServerFactory mencius_factory(
    mencius::Options opt, std::shared_ptr<ApplyRecord> record = nullptr) {
  return [opt, record](harness::NodeHost& host, const consensus::Group& g)
             -> std::unique_ptr<harness::LogServer> {
    const harness::CostModel costs = test::zero_costs();
    auto s = std::make_unique<mencius::MenciusServer>(host, g, costs, opt);
    if (record) {
      s->set_apply_probe(
          [record](NodeId n, consensus::LogIndex i, const kv::Command& c) {
            record->observe(n, i, c);
          });
    }
    return s;
  };
}

mencius::Options lan_mencius_options() {
  mencius::Options o;
  o.batch_delay = msec(1);
  o.heartbeat_interval = msec(40);
  o.revoke_timeout = msec(800);
  o.learn_after = msec(150);
  return o;
}

TEST(MenciusClusterTest, AllRegionsCommitWithoutForwarding) {
  auto record = std::make_shared<ApplyRecord>();
  harness::Cluster cluster(test::lan_config(41));
  cluster.build_replicas(mencius_factory(lan_mencius_options(), record));
  cluster.metrics().set_window(0, kTimeMax);
  kv::WorkloadConfig wl;
  wl.read_fraction = 0.0;
  wl.conflict_rate = 0.0;
  cluster.add_clients(2, wl, msec(100));
  cluster.run_for(sec(5));
  EXPECT_GT(cluster.metrics().completed(), 500);
  for (SiteId s = 0; s < 5; ++s) {
    EXPECT_GT(cluster.metrics().writes(s).count(), 0) << "site " << s;
  }
  EXPECT_FALSE(record->violation);
}

TEST(MenciusClusterTest, ReplicasConverge) {
  harness::Cluster cluster(test::lan_config(42));
  cluster.build_replicas(mencius_factory(lan_mencius_options()));
  kv::WorkloadConfig wl = test::small_workload();
  cluster.add_clients(2, wl, msec(100));
  cluster.run_for(sec(5));
  cluster.stop_clients();
  cluster.run_for(sec(3));
  EXPECT_TRUE(test::stores_converged(cluster));
  EXPECT_GT(cluster.server(0).store().applied_count(), 0u);
}

TEST(MenciusClusterTest, IdleRegionsSkipTheirTurns) {
  harness::Cluster cluster(test::lan_config(43));
  std::vector<mencius::MenciusServer*> servers;
  auto factory = [&servers](harness::NodeHost& host, const consensus::Group& g)
      -> std::unique_ptr<harness::LogServer> {
    const harness::CostModel costs = test::zero_costs();
    auto s = std::make_unique<mencius::MenciusServer>(host, g, costs,
                                                      lan_mencius_options());
    servers.push_back(s.get());
    return s;
  };
  cluster.build_replicas(factory);
  // Only region 0 has clients; all other owners must skip constantly.
  auto& host = cluster.make_host(0);
  test::OneShotClient client(host);
  cluster.run_for(msec(200));
  for (int i = 0; i < 50; ++i) {
    client.send(cluster.server(0).id(),
                kv::Command{kv::Op::kPut, static_cast<uint64_t>(i), 1, 8, 0, 0});
    cluster.run_for(msec(100));
    ASSERT_FALSE(client.waiting()) << "op " << i;
  }
  int64_t total_skips = 0;
  for (auto* s : servers) total_skips += s->node().slots_skipped();
  EXPECT_GT(total_skips, 100);
  cluster.run_for(sec(2));
  EXPECT_TRUE(test::stores_converged(cluster));
}

TEST(MenciusClusterTest, FullPipeRetriesTheRequest) {
  // A 1-byte backpressure budget refuses every submit while a proposal is
  // in flight. The refused put must be retried at the replica, as any
  // request LogServer cannot submit yet is, not dropped until the client's
  // own resend (which OneShotClient never sends).
  mencius::Options opt = lan_mencius_options();
  opt.batch_backpressure_bytes = 1;
  harness::Cluster cluster(test::lan_config(46));
  cluster.build_replicas(mencius_factory(opt));
  cluster.run_for(msec(200));
  test::OneShotClient first(cluster.make_host(0));
  test::OneShotClient second(cluster.make_host(0));
  const NodeId replica = cluster.server(0).id();
  first.send(replica, kv::Command{kv::Op::kPut, 1, 1, 8, 0, 0});
  second.send(replica, kv::Command{kv::Op::kPut, 2, 2, 8, 0, 0});
  cluster.run_for(sec(2));
  EXPECT_EQ(first.replies(), 1);
  EXPECT_EQ(second.replies(), 1);
}

TEST(MenciusClusterTest, GroupProbesHookFactoryBuiltServers) {
  // MenciusServer is a LogServer: the group's apply probe reaches all five
  // replicas and fires once per applied slot.
  harness::Cluster cluster(test::lan_config(47));
  cluster.build_replicas(mencius_factory(lan_mencius_options()));
  std::map<NodeId, int64_t> applies;
  EXPECT_EQ(cluster.install_apply_probe(
                [&applies](NodeId n, consensus::LogIndex, const kv::Command&) {
                  ++applies[n];
                }),
            5);
  cluster.add_clients(2, test::small_workload(), msec(100));
  cluster.run_for(sec(3));
  cluster.stop_clients();
  cluster.run_for(sec(2));
  for (int i = 0; i < cluster.num_replicas(); ++i) {
    const harness::LogServer& s = cluster.server(i);
    // Mencius slots start at 0, so a replica applied index + 1 slots.
    EXPECT_GT(applies[s.id()], 0) << "replica " << i;
    EXPECT_EQ(applies[s.id()], s.node_iface().applied_index() + 1)
        << "replica " << i;
  }
}

TEST(MenciusClusterTest, CrashedOwnerIsRevokedAndSystemProceeds) {
  auto record = std::make_shared<ApplyRecord>();
  harness::Cluster cluster(test::lan_config(44));
  cluster.build_replicas(mencius_factory(lan_mencius_options(), record));
  cluster.metrics().set_window(0, kTimeMax);
  kv::WorkloadConfig wl;
  wl.read_fraction = 0.0;
  wl.conflict_rate = 0.0;
  cluster.add_clients(1, wl, msec(100));
  cluster.run_for(sec(2));
  // Kill replica 3 permanently; its in-flight slots must be revoked.
  const Time t = cluster.sim().now();
  cluster.net().faults().crash(cluster.server(3).id(), t, t + sec(600));
  cluster.run_for(sec(1));
  const int64_t during = cluster.metrics().completed();
  cluster.run_for(sec(6));  // revoke_timeout passes; progress resumes
  EXPECT_GT(cluster.metrics().completed(), during + 100);
  EXPECT_FALSE(record->violation);
  // The four live replicas converge (dead one is excluded).
  const uint64_t fp = cluster.server(0).store().fingerprint();
  cluster.stop_clients();
  cluster.run_for(sec(3));
  for (int i : {1, 2, 4}) {
    EXPECT_EQ(cluster.server(i).store().fingerprint(),
              cluster.server(0).store().fingerprint())
        << "replica " << i;
  }
  (void)fp;
}

TEST(MenciusClusterTest, BrokenHandPortStallsSkippingOwners) {
  // Ablation A2 (§A.4): the hand-port that misses the AppendEntries/propose
  // side of the Phase2b delta never marks its OWN skips executable. Owners
  // that skip (the idle regions) stall their local execution, while the busy
  // owner — whose slots were really proposed — keeps applying. The correct
  // port keeps every store in lock-step.
  for (const bool correct : {true, false}) {
    mencius::Options opt = lan_mencius_options();
    opt.decide_own_skips = correct;
    harness::Cluster cluster(test::lan_config(45));
    cluster.build_replicas(mencius_factory(opt));
    test::OneShotClient client(cluster.make_host(1));
    cluster.run_for(msec(200));
    for (int i = 0; i < 10; ++i) {
      client.send(cluster.server(1).id(),
                  kv::Command{kv::Op::kPut, static_cast<uint64_t>(i), 1, 8, 0, 0});
      cluster.run_for(msec(300));
      ASSERT_FALSE(client.waiting()) << "op " << i;
    }
    cluster.run_for(sec(2));
    const auto applied_busy = cluster.server(1).store().applied_count();
    const auto applied_idle = cluster.server(0).store().applied_count();
    if (correct) {
      EXPECT_EQ(applied_idle, applied_busy) << "correct port keeps pace";
    } else {
      EXPECT_LT(applied_idle, applied_busy) << "broken port stalls skipper";
    }
  }
}

}  // namespace
}  // namespace praft
