// Replication pipelining (PR 8): unit tests for the shared per-peer
// in-flight window (consensus::PeerPipeline), the MultiPaxos heartbeat
// byte-reduction it buys, per-protocol convergence with a full window under
// dropped / duplicated / reordered traffic, and the stale-ack-after-
// step-down regression mirroring wire_test's deposed-leader flush test.
#include <gtest/gtest.h>

#include "consensus/batcher.h"
#include "consensus/pipeline.h"
#include "paxos/node.h"
#include "raft/node.h"
#include "scripted_env.h"
#include "test_util.h"

namespace praft {
namespace {

consensus::TimingOptions pipe_opts(size_t window_bytes, size_t max_batches) {
  consensus::TimingOptions o;
  o.pipeline = true;
  o.pipeline_inflight_bytes = window_bytes;
  o.pipeline_max_batches = max_batches;
  o.pipeline_retransmit_timeout = msec(600);
  return o;
}

// ---------------------------------------------------------------------------
// PeerPipeline unit behaviour.
// ---------------------------------------------------------------------------

TEST(PeerPipeline, WindowGatesByBytesAndBatches) {
  consensus::Stats stats;
  consensus::PeerPipeline p(pipe_opts(1000, 3), stats);
  EXPECT_TRUE(p.can_send(1));
  p.on_send(1, 1, 10, 400, 0);
  EXPECT_TRUE(p.can_send(1));  // 400 < 1000, 1 < 3 batches
  p.on_send(1, 11, 20, 400, 0);
  EXPECT_TRUE(p.can_send(1));
  p.on_send(1, 21, 30, 400, 0);
  EXPECT_FALSE(p.can_send(1));  // 1200 >= 1000
  EXPECT_EQ(p.outstanding_batches(1), 3u);
  EXPECT_EQ(p.inflight_bytes(1), 1200u);
  // Independent peers have independent windows.
  EXPECT_TRUE(p.can_send(2));
}

TEST(PeerPipeline, MaxBatchesGatesEvenWhenBytesFit) {
  consensus::Stats stats;
  consensus::PeerPipeline p(pipe_opts(1 << 20, 2), stats);
  p.on_send(1, 1, 1, 10, 0);
  p.on_send(1, 2, 2, 10, 0);
  EXPECT_FALSE(p.can_send(1));
}

TEST(PeerPipeline, CumulativeAckRetiresPrefixAndGrowsWindow) {
  consensus::Stats stats;
  consensus::PeerPipeline p(pipe_opts(1600, 16), stats);
  p.on_send(1, 1, 10, 400, 0);
  p.on_send(1, 11, 20, 400, 0);
  p.on_send(1, 21, 30, 400, 0);
  // Ack covering the first two batches (cumulative at hi=20).
  p.on_ack(1, 20);
  EXPECT_EQ(p.outstanding_batches(1), 1u);
  EXPECT_EQ(p.inflight_bytes(1), 400u);
  // Additive increase is capped at the configured maximum.
  EXPECT_LE(p.window(1), 1600u);
  // Ack for the rest empties the channel exactly.
  p.on_ack(1, 30);
  EXPECT_EQ(p.outstanding_batches(1), 0u);
  EXPECT_EQ(p.inflight_bytes(1), 0u);
}

TEST(PeerPipeline, DuplicateAndStaleAcksAreInert) {
  consensus::Stats stats;
  consensus::PeerPipeline p(pipe_opts(1000, 16), stats);
  p.on_send(1, 1, 10, 300, 0);
  p.on_ack(1, 10);
  const size_t w = p.window(1);
  // Duplicate ack, ack below anything outstanding, ack for unknown peer.
  p.on_ack(1, 10);
  p.on_ack(1, 5);
  p.on_ack(7, 100);
  EXPECT_EQ(p.outstanding_batches(1), 0u);
  EXPECT_EQ(p.window(1), w);
  EXPECT_EQ(stats.pipeline_rollbacks, 0);
}

TEST(PeerPipeline, ReorderedAckStillRetiresByCumulativeKey) {
  consensus::Stats stats;
  consensus::PeerPipeline p(pipe_opts(10000, 16), stats);
  p.on_send(1, 1, 10, 100, 0);
  p.on_send(1, 11, 20, 100, 0);
  // The ack for the *second* batch arrives first (network reordering):
  // cumulative semantics retire both.
  p.on_ack(1, 20);
  EXPECT_EQ(p.outstanding_batches(1), 0u);
  // The first batch's ack then arrives late — nothing to do.
  p.on_ack(1, 10);
  EXPECT_EQ(p.outstanding_batches(1), 0u);
  EXPECT_EQ(stats.pipeline_rollbacks, 0);
}

TEST(PeerPipeline, RejectClearsHalvesAndCounts) {
  consensus::Stats stats;
  consensus::PeerPipeline p(pipe_opts(1024, 16), stats);
  p.on_send(1, 1, 10, 600, 0);
  p.on_send(1, 11, 20, 300, 0);
  p.on_reject(1);
  EXPECT_EQ(p.outstanding_batches(1), 0u);
  EXPECT_EQ(p.inflight_bytes(1), 0u);
  EXPECT_EQ(p.window(1), 512u);
  EXPECT_EQ(stats.pipeline_rollbacks, 1);
  // Repeated trouble floors at window_max / 16, never zero.
  for (int i = 0; i < 10; ++i) p.on_reject(1);
  EXPECT_EQ(p.window(1), 64u);
  EXPECT_TRUE(p.can_send(1));  // an empty channel may always send
}

TEST(PeerPipeline, RetransmitDueAfterTimeoutAndLossReturnsOldestLo) {
  consensus::Stats stats;
  consensus::PeerPipeline p(pipe_opts(10000, 16), stats);
  p.on_send(1, 5, 10, 100, /*now=*/0);
  p.on_send(1, 11, 20, 100, msec(100));
  EXPECT_FALSE(p.retransmit_due(1, msec(500)));
  EXPECT_TRUE(p.retransmit_due(1, msec(600)));
  const auto lo = p.on_loss(1);
  EXPECT_EQ(lo, 5);
  EXPECT_EQ(p.outstanding_batches(1), 0u);
  EXPECT_EQ(stats.pipeline_rollbacks, 1);
  // Nothing outstanding: no further probe, and on_loss reports nothing.
  EXPECT_FALSE(p.retransmit_due(1, msec(5000)));
  EXPECT_EQ(p.on_loss(1), -1);
}

TEST(PeerPipeline, StopAndWaitModeAllowsOneBatch) {
  consensus::TimingOptions o = pipe_opts(1 << 20, 16);
  o.pipeline = false;
  consensus::Stats stats;
  consensus::PeerPipeline p(o, stats);
  EXPECT_TRUE(p.can_send(1));
  p.on_send(1, 1, 64, 100, 0);
  EXPECT_FALSE(p.can_send(1));  // window/batch budget ignored: strict 1
  p.on_ack(1, 64);
  EXPECT_TRUE(p.can_send(1));
}

TEST(PeerPipeline, ResetAllMakesLateAcksInert) {
  // Unit-level stale-ack mirror: a leadership change resets the pipeline;
  // acks from the old regime must neither retire nor grow anything.
  consensus::Stats stats;
  consensus::PeerPipeline p(pipe_opts(1000, 16), stats);
  p.on_send(1, 1, 10, 400, 0);
  p.on_send(2, 1, 10, 400, 0);
  p.reset_all();
  EXPECT_EQ(p.outstanding_batches(1), 0u);
  p.on_ack(1, 10);  // stale ack after the reset
  p.on_ack(2, 10);
  EXPECT_EQ(p.outstanding_batches(1), 0u);
  EXPECT_EQ(p.outstanding_batches(2), 0u);
  EXPECT_EQ(p.window(1), 1000u);  // back to the configured start
}

// ---------------------------------------------------------------------------
// RTT-adaptive retransmit timeout (Jacobson/Karels per peer).
// ---------------------------------------------------------------------------

TEST(PeerPipeline, RtoDefaultsToFixedTimeoutBeforeAnySample) {
  consensus::Stats stats;
  consensus::PeerPipeline p(pipe_opts(10000, 16), stats);
  EXPECT_EQ(p.rto(1), msec(600));
  EXPECT_EQ(p.srtt(1), 0);
}

TEST(PeerPipeline, FirstRttSampleSeedsSrttAndRaisesRtoAboveFloor) {
  consensus::Stats stats;
  consensus::PeerPipeline p(pipe_opts(10000, 16), stats);
  p.on_send(1, 1, 10, 100, /*now=*/0);
  p.on_ack(1, 10, /*now=*/msec(300));
  // First sample R: srtt = R, rttvar = R/2, RTO = srtt + 4*rttvar = 3R.
  EXPECT_EQ(p.srtt(1), msec(300));
  EXPECT_EQ(p.rto(1), msec(900));
  // Peers learn independently.
  EXPECT_EQ(p.rto(2), msec(600));
}

TEST(PeerPipeline, FastNetworkKeepsFixedTimeoutAsFloor) {
  // LAN-scale samples must NOT shrink the RTO below the configured fixed
  // timeout: chaos timing (drop-heavy WAN schedules) relies on 600 ms as a
  // floor, so adaptation can only ever lengthen patience.
  consensus::Stats stats;
  consensus::PeerPipeline p(pipe_opts(10000, 16), stats);
  for (int i = 0; i < 20; ++i) {
    const Time t = msec(10 * i);
    p.on_send(1, 1 + i, 1 + i, 100, t);
    p.on_ack(1, 1 + i, t + msec(1));
  }
  EXPECT_EQ(p.srtt(1), msec(1));
  EXPECT_EQ(p.rto(1), msec(600));
}

TEST(PeerPipeline, RetransmitDueUsesAdaptiveRto) {
  consensus::Stats stats;
  consensus::PeerPipeline p(pipe_opts(10000, 16), stats);
  p.on_send(1, 1, 10, 100, /*now=*/0);
  p.on_ack(1, 10, msec(300));  // srtt 300 ms -> RTO 900 ms
  p.on_send(1, 11, 20, 100, msec(300));
  EXPECT_FALSE(p.retransmit_due(1, msec(300) + msec(899)));
  EXPECT_TRUE(p.retransmit_due(1, msec(300) + msec(900)));
}

TEST(PeerPipeline, SteadyRttConvergesAndVarianceDecays) {
  consensus::Stats stats;
  consensus::PeerPipeline p(pipe_opts(1 << 20, 64), stats);
  // Repeated identical 250 ms samples: srtt pins to 250 ms and rttvar
  // decays geometrically, so RTO falls from 3R toward the srtt + small-var
  // regime (still >= the 600 ms floor).
  Time now = 0;
  for (int i = 0; i < 40; ++i) {
    p.on_send(1, 1 + i, 1 + i, 100, now);
    now += msec(250);
    p.on_ack(1, 1 + i, now);
  }
  EXPECT_EQ(p.srtt(1), msec(250));
  EXPECT_LT(p.rto(1), msec(750));   // rttvar decayed well below R/2
  EXPECT_GE(p.rto(1), msec(600));   // never below the fixed floor
}

TEST(PeerPipeline, PostLossAcksAreNeverSampled) {
  // Karn's rule falls out of the outstanding-set design: on_loss clears the
  // peer's channel, so an ack for retransmitted data retires nothing and
  // must not poison srtt with an ambiguous measurement.
  consensus::Stats stats;
  consensus::PeerPipeline p(pipe_opts(10000, 16), stats);
  p.on_send(1, 1, 10, 100, /*now=*/0);
  EXPECT_EQ(p.on_loss(1), 1);
  p.on_ack(1, 10, sec(5));  // late ack from the original transmission
  EXPECT_EQ(p.srtt(1), 0);  // no sample was taken
  EXPECT_EQ(p.rto(1), msec(600));
}

// ---------------------------------------------------------------------------
// Batcher backpressure: pending + in-flight bytes stay bounded.
// ---------------------------------------------------------------------------

consensus::TimingOptions backpressure_opt(size_t cap) {
  consensus::TimingOptions o;
  o.batch_delay = msec(5);
  o.batch_backpressure_bytes = cap;
  return o;
}

TEST(Batcher, BackpressureBoundsPendingPlusInflight) {
  test::ScriptedEnv env;
  consensus::Batcher b(env, backpressure_opt(1000), [] {});
  // The submit discipline every protocol node follows: consult can_accept()
  // before add_pending. The queued + unacked total then never exceeds the
  // cap, no matter how fast clients push.
  size_t accepted = 0;
  for (int i = 0; i < 100; ++i) {
    if (!b.can_accept()) break;
    b.add_pending(300);
    ++accepted;
    EXPECT_LE(b.pending_bytes() + b.inflight_bytes(), 1000u + 300u);
  }
  EXPECT_EQ(accepted, 4u);  // 4 * 300 = 1200 >= 1000 gates the 5th
  EXPECT_FALSE(b.can_accept());

  env.advance(msec(5));  // flush: pending becomes in-flight, still capped
  EXPECT_EQ(b.pending_bytes(), 0u);
  EXPECT_EQ(b.inflight_bytes(), 1200u);
  EXPECT_FALSE(b.can_accept());

  b.note_acked(300);  // progress frees budget
  EXPECT_TRUE(b.can_accept());
  // note_acked clamps: over-reporting (snapshot jumps) cannot wedge it.
  b.note_acked(1 << 30);
  EXPECT_EQ(b.inflight_bytes(), 0u);
}

TEST(Batcher, BackpressureDisabledByZeroCap) {
  test::ScriptedEnv env;
  consensus::Batcher b(env, backpressure_opt(0), [] {});
  b.add_pending(1 << 30);
  EXPECT_TRUE(b.can_accept());
}

TEST(Batcher, CancelReleasesBackpressureForNextReign) {
  test::ScriptedEnv env;
  consensus::Batcher b(env, backpressure_opt(1000), [] {});
  b.add_pending(600);
  env.advance(msec(5));
  b.add_pending(600);
  EXPECT_FALSE(b.can_accept());  // 600 in flight + 600 pending
  // Step-down: the old reign's accounting dies with its flushes. A stale
  // in-flight count must not wedge the next leadership's submissions.
  b.cancel();
  EXPECT_EQ(b.inflight_bytes(), 0u);
  EXPECT_TRUE(b.can_accept());
}

// ---------------------------------------------------------------------------
// Raft: a deposed leader's pipeline state must not act on stale acks.
// Mirrors wire_test's DeposedRaftLeaderFlushIsInert at the replication
// layer: the follower's AppendReply lands after the step-down.
// ---------------------------------------------------------------------------

TEST(Pipeline, StaleAckAfterStepDownIsInert) {
  test::ScriptedEnv env;
  raft::Options opt = test::fast_options<raft::Options>();
  opt.batch_delay = 0;
  consensus::Group g;
  g.self = 0;
  g.members = {0, 1, 2};
  raft::RaftNode node(g, env, opt);
  node.start();
  env.advance(msec(400));
  ASSERT_EQ(node.role(), raft::Role::kCandidate);
  const consensus::Term t = node.current_term();
  node.on_packet(
      test::packet(1, 0, 0, raft::Message{raft::VoteReply{t, 1, true}}));
  ASSERT_TRUE(node.is_leader());
  ASSERT_GE(node.submit(kv::Command{kv::Op::kPut, 1, 2, 8, 3, 4}), 0);
  env.advance(msec(2));  // flush: entry 1 now in flight to both peers
  env.clear();

  // Higher-term append deposes the leader with the entry still in flight.
  raft::AppendEntries ae;
  ae.term = t + 1;
  ae.leader = 2;
  node.on_packet(test::packet(2, 0, 0, raft::Message{ae}));
  ASSERT_FALSE(node.is_leader());
  EXPECT_EQ(node.stats().pipeline_rollbacks, 0);

  // The old regime's ack finally arrives, then time passes the retransmit
  // timeout. Neither may produce an AppendEntries or a loss rollback.
  node.on_packet(test::packet(
      1, 0, 0, raft::Message{raft::AppendReply{t, 1, true, 1, 0}}));
  env.clear();
  env.advance(msec(700));  // past pipeline_retransmit_timeout
  EXPECT_EQ(node.stats().pipeline_rollbacks, 0);
  for (const auto& sent : env.outbox) {
    const auto* m = std::any_cast<raft::Message>(&sent.payload);
    ASSERT_TRUE(m == nullptr ||
                !std::holds_alternative<raft::AppendEntries>(*m))
        << "deposed leader replicated off a stale ack";
  }
}

// ---------------------------------------------------------------------------
// MultiPaxos satellite bugfix: the leader no longer rebroadcasts every
// unchosen instance to every peer on every heartbeat tick. With a majority
// partitioned away, the windowed retransmit path must move an order of
// magnitude fewer bytes than the old blanket resend; once healed and
// converged, the steady state is heartbeat-only.
// ---------------------------------------------------------------------------

TEST(Pipeline, PaxosHeartbeatNoBlanketResend) {
  auto record = std::make_shared<test::ApplyRecord>();
  harness::Cluster cluster(test::lan_config(81));
  paxos::Options opt = test::fast_options<paxos::Options>();
  cluster.build_replicas(
      test::make_factory<paxos::PaxosNode>(opt, record));
  ASSERT_EQ(cluster.establish_leader(0), 0);
  auto& leader = cluster.server(0).node_iface();

  // Healthy phase: 50 commands replicate and choose normally.
  for (int i = 0; i < 50; ++i) {
    ASSERT_GE(leader.submit(kv::Command{kv::Op::kPut, 10u + i, 1u + i, 8, 9,
                                        100u + i}),
              0);
  }
  cluster.run_for(sec(2));
  ASSERT_GE(leader.commit_index(), 50);

  // Converged steady state: heartbeats only. 2 s at 40 ms x 4 peers of
  // small Heartbeat frames is a few KB; the old code rebroadcast every
  // not-yet-globally-known instance here and any resend blows the bound.
  const uint64_t bytes0 = cluster.net().bytes_sent();
  cluster.run_for(sec(2));
  const uint64_t idle = cluster.net().bytes_sent() - bytes0;
  EXPECT_LT(idle, 25'000u) << "idle leader is resending instances";

  // Stall phase: cut the leader off from a majority and propose 50 more.
  // They stay unchosen — under the old code a full rebroadcast to every
  // peer at every 40 ms heartbeat tick; now a windowed offer per peer plus
  // a timed retransmit probe every 600 ms.
  const Time cut_from = cluster.sim().now();
  for (int i = 1; i <= 3; ++i) {
    cluster.net().faults().isolate(cluster.server(i).id(), cut_from,
                                   cut_from + sec(3));
  }
  cluster.run_for(msec(50));
  for (int i = 0; i < 50; ++i) {
    ASSERT_GE(leader.submit(kv::Command{kv::Op::kPut, 60u + i, 1u + i, 8, 9,
                                        200u + i}),
              0);
  }
  const uint64_t bytes1 = cluster.net().bytes_sent();
  cluster.run_for(sec(2));
  const uint64_t stalled = cluster.net().bytes_sent() - bytes1;
  // Old blanket resend: ~50 ticks x 4 peers x 50 commands (~2 KB per
  // rebroadcast batch) ~= 400 KB in this window. Windowed: well under a
  // quarter of that.
  EXPECT_LT(stalled, 100'000u) << "heartbeat-tick blanket resend is back";
  EXPECT_GT(leader.stats().pipeline_rollbacks, 0);  // loss probes did fire

  // Heal. The isolated majority has been running elections, so leadership
  // must be re-established; node 0's own accepted tail makes its next reign
  // re-propose the stalled instances and choose them.
  cluster.run_for(sec(2));
  ASSERT_EQ(cluster.establish_leader(0), 0);
  cluster.run_for(sec(4));
  EXPECT_TRUE(test::stores_converged(cluster));
  EXPECT_FALSE(record->violation);
  EXPECT_GE(leader.commit_index(), 100);
}

// ---------------------------------------------------------------------------
// Per-protocol convergence with the window full of in-flight batches while
// the network drops, duplicates and reorders traffic, then heals.
// ---------------------------------------------------------------------------

class PipelineFaults : public ::testing::TestWithParam<const char*> {};

TEST_P(PipelineFaults, ConvergesThroughDropDupReorder) {
  auto record = std::make_shared<test::ApplyRecord>();
  harness::Cluster cluster(test::lan_config(82));
  consensus::TimingOptions timing =
      test::fast_options<consensus::TimingOptions>();
  // Small window + small batches: the fault window catches many in-flight
  // batches, not one giant one.
  timing.max_entries_per_batch = 8;
  timing.pipeline_inflight_bytes = 4096;
  cluster.build_replicas(GetParam(), timing);
  cluster.install_apply_probe(
      [record](NodeId n, consensus::LogIndex i, const kv::Command& c) {
        record->observe(n, i, c);
      });
  if (!cluster.server(0).leaderless()) {
    ASSERT_GE(cluster.establish_leader(0), 0);
  } else {
    cluster.run_for(msec(500));
  }

  auto& faults = cluster.net().faults();
  faults.set_drop_rate(0.10);
  faults.set_duplicate_rate(0.30);
  faults.set_reorder_rate(0.30);
  cluster.add_clients(3, test::small_workload(), cluster.sim().now());
  cluster.run_for(sec(6));

  faults.set_drop_rate(0.0);
  faults.set_duplicate_rate(0.0);
  faults.set_reorder_rate(0.0);
  cluster.run_for(sec(2));
  cluster.stop_clients();
  cluster.run_for(sec(4));

  EXPECT_FALSE(record->violation) << GetParam() << ": divergent applies";
  EXPECT_GT(record->observations, 0);
  EXPECT_TRUE(test::stores_converged(cluster)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, PipelineFaults,
                         ::testing::Values("raft", "raftstar", "multipaxos",
                                           "mencius"));

}  // namespace
}  // namespace praft
