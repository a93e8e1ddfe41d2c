#include <gtest/gtest.h>

#include "raftstar/node.h"
#include "scripted_env.h"
#include "test_util.h"

namespace praft {
namespace {

using test::ApplyRecord;
using test::ScriptedEnv;

consensus::Group group_of(NodeId self, std::initializer_list<NodeId> members) {
  consensus::Group g;
  g.self = self;
  g.members = members;
  return g;
}

raftstar::Options unit_options() {
  raftstar::Options o;
  o.election_timeout_min = msec(150);
  o.election_timeout_max = msec(300);
  o.heartbeat_interval = msec(50);
  o.batch_delay = 0;
  return o;
}

net::Packet packet(NodeId from, NodeId to, raftstar::Message m) {
  return test::packet(from, to, raftstar::wire_size(m), std::move(m));
}

raftstar::AppendEntries make_append(consensus::Term term, NodeId leader,
                                    consensus::LogIndex prev,
                                    consensus::Term prev_term,
                                    std::vector<raftstar::Entry> ents,
                                    consensus::LogIndex commit = 0) {
  raftstar::AppendEntries ae;
  ae.term = term;
  ae.leader = leader;
  ae.prev_index = prev;
  ae.prev_term = prev_term;
  ae.entries = std::move(ents);
  ae.commit = commit;
  return ae;
}

// ---------------------------------------------------------------------------
// Raft* difference #1: vote replies carry the voter's extra entries and the
// candidate extends its log with safe values (paper Fig. 2a).
// ---------------------------------------------------------------------------
TEST(RaftStarUnitTest, VoteReplyCarriesExtraEntries) {
  ScriptedEnv env;
  raftstar::RaftStarNode n(group_of(1, {0, 1, 2}), env, unit_options());
  n.start();
  // Voter accepts two entries at term 1 from leader 2.
  kv::Command c1{kv::Op::kPut, 1, 11, 8, 9, 1};
  kv::Command c2{kv::Op::kPut, 2, 22, 8, 9, 2};
  n.on_packet(packet(2, 1,
                     raftstar::Message{make_append(
                         1, 2, 0, 0,
                         {raftstar::Entry{1, c1}, raftstar::Entry{1, c2}})}));
  EXPECT_EQ(n.last_index(), 2);
  EXPECT_EQ(n.log_bal(), 1);
  env.clear();
  // Candidate 0 at term 2 whose log is EMPTY but whose last term ties ours?
  // No: our last term is 1 > candidate's 0, so it must be rejected.
  n.on_packet(packet(0, 1, raftstar::Message{raftstar::RequestVote{2, 0, 0, 0}}));
  auto sent = env.take_for(0);
  ASSERT_EQ(sent.size(), 1u);
  {
    const auto* r = std::get_if<raftstar::VoteReply>(
        std::any_cast<raftstar::Message>(&sent[0].payload));
    ASSERT_NE(r, nullptr);
    EXPECT_FALSE(r->granted);
  }
  // Candidate 2 at term 3 with the same last term (1) but a SHORTER log
  // (last_index 1 < our 2): Raft would reject; Raft* also rejects by the
  // up-to-date rule... candidate must be at least as long on equal terms.
  n.on_packet(packet(2, 1, raftstar::Message{raftstar::RequestVote{3, 2, 1, 1}}));
  sent = env.take_for(2);
  ASSERT_EQ(sent.size(), 1u);
  {
    const auto* r = std::get_if<raftstar::VoteReply>(
        std::any_cast<raftstar::Message>(&sent[0].payload));
    ASSERT_NE(r, nullptr);
    EXPECT_FALSE(r->granted);
  }
  // Candidate 0 at term 6 with a HIGHER last term (2 > our creation term 1)
  // but a SHORTER log: granted, and the reply must carry our extra entry
  // (index 2) for safe-value selection. A term-5 append first re-stamps our
  // log ballot to 5 while the entries keep creation term 1.
  n.on_packet(packet(2, 1,
                     raftstar::Message{make_append(
                         5, 2, 0, 0,
                         {raftstar::Entry{1, c1}, raftstar::Entry{1, c2}})}));
  env.clear();
  n.on_packet(packet(0, 1, raftstar::Message{raftstar::RequestVote{6, 0, 1, 2}}));
  sent = env.take_for(0);
  ASSERT_EQ(sent.size(), 1u);
  const auto* r = std::get_if<raftstar::VoteReply>(
      std::any_cast<raftstar::Message>(&sent[0].payload));
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->granted);
  EXPECT_EQ(r->extra_from, 2);
  ASSERT_EQ(r->extras.size(), 1u);
  EXPECT_TRUE(r->extras[0].cmd == c2);
  EXPECT_EQ(r->log_bal, 5);  // re-stamped by the term-5 append
}

TEST(RaftStarUnitTest, LeaderAdoptsSafeValuesFromExtras) {
  ScriptedEnv env;
  raftstar::RaftStarNode n(group_of(0, {0, 1, 2}), env, unit_options());
  n.start();
  n.force_election();
  ASSERT_EQ(n.current_term(), 1);
  // Voter 1 grants with one extra entry at index 1 (ballot 0 log).
  kv::Command c1{kv::Op::kPut, 7, 77, 8, 9, 1};
  raftstar::VoteReply vr;
  vr.term = 1;
  vr.voter = 1;
  vr.granted = true;
  vr.log_bal = 0;
  vr.extra_from = 1;
  vr.extras = {raftstar::Entry{0, c1}};
  n.on_packet(packet(1, 0, raftstar::Message{vr}));
  ASSERT_TRUE(n.is_leader());
  // The leader extended its log with the safe value, re-stamped at term 1.
  ASSERT_EQ(n.last_index(), 1);
  EXPECT_TRUE(n.entry_at(1).cmd == c1);
  EXPECT_EQ(n.entry_at(1).term, 1);
  EXPECT_EQ(n.log_bal(), 1);
}

TEST(RaftStarUnitTest, LeaderPrefersHighestBallotExtra) {
  ScriptedEnv env;
  // Group of 5: candidate needs 2 more votes, letting us send two different
  // extras and check the higher-ballot one wins.
  raftstar::RaftStarNode n(group_of(0, {0, 1, 2, 3, 4}), env, unit_options());
  n.start();
  n.force_election();
  kv::Command low{kv::Op::kPut, 1, 1, 8, 9, 1};
  kv::Command high{kv::Op::kPut, 2, 2, 8, 9, 2};
  raftstar::VoteReply v1;
  v1.term = 1;
  v1.voter = 1;
  v1.granted = true;
  v1.log_bal = 3;
  v1.extra_from = 1;
  v1.extras = {raftstar::Entry{0, low}};
  raftstar::VoteReply v2 = v1;
  v2.voter = 2;
  v2.log_bal = 7;
  v2.extras = {raftstar::Entry{0, high}};
  n.on_packet(packet(1, 0, raftstar::Message{v1}));
  n.on_packet(packet(2, 0, raftstar::Message{v2}));
  ASSERT_TRUE(n.is_leader());
  ASSERT_EQ(n.last_index(), 1);
  EXPECT_TRUE(n.entry_at(1).cmd == high);  // ballot 7 beats ballot 3
}

// ---------------------------------------------------------------------------
// Raft* difference #2: a follower REJECTS appends whose coverage is shorter
// than its log — it never erases (paper §3, Appendix B.2 AcceptEntries).
// ---------------------------------------------------------------------------
TEST(RaftStarUnitTest, FollowerRejectsShortCoverage) {
  ScriptedEnv env;
  raftstar::RaftStarNode n(group_of(1, {0, 1, 2}), env, unit_options());
  n.start();
  kv::Command c1{kv::Op::kPut, 1, 11, 8, 9, 1};
  kv::Command c2{kv::Op::kPut, 2, 22, 8, 9, 2};
  kv::Command c3{kv::Op::kPut, 3, 33, 8, 9, 3};
  n.on_packet(packet(
      2, 1,
      raftstar::Message{make_append(1, 2, 0, 0,
                                    {raftstar::Entry{1, c1},
                                     raftstar::Entry{1, c2},
                                     raftstar::Entry{1, c3}})}));
  ASSERT_EQ(n.last_index(), 3);
  env.clear();
  // New leader at term 2 sends coverage only up to index 2: REJECTED, and
  // the follower's log is untouched (contrast with RaftUnitTest
  // FollowerErasesConflictingSuffix).
  kv::Command cx{kv::Op::kPut, 9, 99, 8, 7, 1};
  n.on_packet(packet(0, 1,
                     raftstar::Message{make_append(
                         2, 0, 1, 1, {raftstar::Entry{2, cx}})}));
  EXPECT_EQ(n.last_index(), 3);
  EXPECT_TRUE(n.entry_at(3).cmd == c3);
  auto sent = env.take_for(0);
  ASSERT_EQ(sent.size(), 1u);
  const auto* r = std::get_if<raftstar::AppendReply>(
      std::any_cast<raftstar::Message>(&sent[0].payload));
  ASSERT_NE(r, nullptr);
  EXPECT_FALSE(r->ok);
  EXPECT_EQ(r->follower_last, 3);
  EXPECT_EQ(r->conflict_hint, 0);  // prev matched; coverage was short
  // Full-coverage replacement at term 2 is accepted and overwrites.
  n.on_packet(packet(0, 1,
                     raftstar::Message{make_append(
                         2, 0, 1, 1,
                         {raftstar::Entry{2, cx}, raftstar::Entry{2, cx}})}));
  EXPECT_EQ(n.last_index(), 3);
  EXPECT_TRUE(n.entry_at(2).cmd == cx);
  EXPECT_TRUE(n.entry_at(3).cmd == cx);
}

TEST(RaftStarUnitTest, LeaderExtendsWithNoopsWhenFollowerLonger) {
  ScriptedEnv env;
  raftstar::RaftStarNode n(group_of(0, {0, 1, 2}), env, unit_options());
  n.start();
  n.force_election();
  raftstar::VoteReply vr;
  vr.term = 1;
  vr.voter = 1;
  vr.granted = true;
  vr.log_bal = 0;
  n.on_packet(packet(1, 0, raftstar::Message{vr}));
  ASSERT_TRUE(n.is_leader());
  ASSERT_EQ(n.last_index(), 0);
  env.clear();
  // Follower 2 reports a longer log (it was not in the vote quorum).
  raftstar::AppendReply rej;
  rej.term = 1;
  rej.follower = 2;
  rej.ok = false;
  rej.follower_last = 4;
  rej.conflict_hint = 0;
  n.on_packet(packet(2, 0, raftstar::Message{rej}));
  EXPECT_EQ(n.last_index(), 4);  // extended with no-ops to cover
  for (consensus::LogIndex i = 1; i <= 4; ++i) {
    EXPECT_TRUE(n.entry_at(i).cmd.is_noop());
  }
  // And it resent an append covering the follower's whole log.
  auto sent = env.take_for(2);
  ASSERT_FALSE(sent.empty());
  const auto* ae = std::get_if<raftstar::AppendEntries>(
      std::any_cast<raftstar::Message>(&sent.back().payload));
  ASSERT_NE(ae, nullptr);
  EXPECT_EQ(ae->prev_index + static_cast<consensus::LogIndex>(
                                  ae->entries.size()),
            4);
}

// ---------------------------------------------------------------------------
// Raft* difference #3: ballots are overwritten on every accepted append, so
// commit needs no §5.4.2 restriction.
// ---------------------------------------------------------------------------
TEST(RaftStarUnitTest, BallotOverwrittenOnAppend) {
  ScriptedEnv env;
  raftstar::RaftStarNode n(group_of(1, {0, 1, 2}), env, unit_options());
  n.start();
  kv::Command c1{kv::Op::kPut, 1, 11, 8, 9, 1};
  n.on_packet(packet(2, 1,
                     raftstar::Message{make_append(
                         1, 2, 0, 0, {raftstar::Entry{1, c1}})}));
  EXPECT_EQ(n.log_bal(), 1);
  // A heartbeat-like append at term 5 covering the log re-stamps ballots
  // even though the entry's creation term stays 1.
  n.on_packet(packet(0, 1, raftstar::Message{make_append(5, 0, 1, 1, {})}));
  EXPECT_EQ(n.log_bal(), 5);
  EXPECT_EQ(n.entry_at(1).term, 1);
}

TEST(RaftStarUnitTest, CommitsPriorTermEntryWithoutNoop) {
  // A new Raft* leader commits inherited entries directly by counting —
  // no term-start no-op entry is appended (unlike RaftNode::become_leader).
  ScriptedEnv env;
  raftstar::RaftStarNode n(group_of(0, {0, 1, 2}), env, unit_options());
  std::vector<consensus::LogIndex> applied;
  n.set_apply([&](consensus::LogIndex i, const kv::Command&) {
    applied.push_back(i);
  });
  n.start();
  n.force_election();
  kv::Command c1{kv::Op::kPut, 7, 77, 8, 9, 1};
  raftstar::VoteReply vr;
  vr.term = 1;
  vr.voter = 1;
  vr.granted = true;
  vr.log_bal = 0;
  vr.extra_from = 1;
  vr.extras = {raftstar::Entry{0, c1}};
  n.on_packet(packet(1, 0, raftstar::Message{vr}));
  ASSERT_TRUE(n.is_leader());
  EXPECT_EQ(n.last_index(), 1);  // no extra no-op entry
  // One follower acks coverage of index 1 => majority (2/3) => commit.
  raftstar::AppendReply ok;
  ok.term = 1;
  ok.follower = 1;
  ok.ok = true;
  ok.match_index = 1;
  ok.follower_last = 1;
  n.on_packet(packet(1, 0, raftstar::Message{ok}));
  EXPECT_EQ(n.commit_index(), 1);
  EXPECT_EQ(applied.size(), 1u);
}

TEST(RaftStarUnitTest, CommitGateBlocksAndRetries) {
  ScriptedEnv env;
  raftstar::RaftStarNode n(group_of(0, {0, 1, 2}), env, unit_options());
  n.start();
  n.force_election();
  raftstar::VoteReply vr;
  vr.term = 1;
  vr.voter = 1;
  vr.granted = true;
  vr.log_bal = 0;
  n.on_packet(packet(1, 0, raftstar::Message{vr}));
  ASSERT_TRUE(n.is_leader());
  bool allow = false;
  n.set_commit_gate([&](consensus::LogIndex) { return allow; });
  n.submit(kv::Command{kv::Op::kPut, 1, 1, 8, 0, 1});
  env.advance(msec(5));
  raftstar::AppendReply ok;
  ok.term = 1;
  ok.follower = 1;
  ok.ok = true;
  ok.match_index = 1;
  ok.follower_last = 1;
  n.on_packet(packet(1, 0, raftstar::Message{ok}));
  EXPECT_EQ(n.commit_index(), 0);  // gated (PQL semantics)
  allow = true;
  n.retry_commit();
  EXPECT_EQ(n.commit_index(), 1);
}

// ---------------------------------------------------------------------------
// Compaction: a voter whose snapshot base is above the candidate's log ships
// its checkpoint in the vote reply, and the new leader installs it before
// safe-value selection; a follower acks an append that its snapshot covers.
// ---------------------------------------------------------------------------

kv::Command put(uint64_t k) {
  return kv::Command{kv::Op::kPut, k, 10 * k, 8, 9, k};
}

/// Term-1 entries 1..n holding put(1)..put(n).
std::vector<raftstar::Entry> puts_to(uint64_t n) {
  std::vector<raftstar::Entry> out;
  for (uint64_t k = 1; k <= n; ++k) out.push_back(raftstar::Entry{1, put(k)});
  return out;
}

/// A term-1 checkpoint at `last`, taken by `provider` after applying
/// put(1)..put(last).
consensus::Snapshot checkpoint_at(uint64_t last, kv::KvStore& provider) {
  for (uint64_t k = 1; k <= last; ++k) provider.apply(put(k));
  consensus::Snapshot snap;
  snap.last_index = static_cast<consensus::LogIndex>(last);
  snap.last_term = 1;
  snap.state = provider.image();
  return snap;
}

/// Voter 1's granted term-2 reply carrying `snap` and `extras` from index 5.
raftstar::VoteReply vote_with_checkpoint(consensus::Snapshot snap,
                                         std::vector<raftstar::Entry> extras) {
  raftstar::VoteReply vr;
  vr.term = 2;
  vr.voter = 1;
  vr.granted = true;
  vr.log_bal = 1;
  vr.has_snap = true;
  vr.snap = std::move(snap);
  vr.extra_from = 5;
  vr.extras = std::move(extras);
  return vr;
}

TEST(RaftStarUnitTest, VoterShipsItsCheckpointToACandidateBelowItsBase) {
  ScriptedEnv env;
  raftstar::RaftStarNode n(group_of(1, {0, 1, 2}), env, unit_options());
  kv::KvStore store;
  test::attach_store(n, store);
  n.start();
  // Leader 2 (term 1) replicates 1-6 and commits 4; the voter compacts at 4.
  n.on_packet(packet(
      2, 1, raftstar::Message{make_append(1, 2, 0, 0, puts_to(6), 4)}));
  n.compact();
  ASSERT_EQ(n.compaction_floor(), 4);
  env.clear();
  // Candidate 0's log ends at 2 on a newer term: the vote is granted, but
  // entries 3-4 are gone from the voter's log.
  n.on_packet(
      packet(0, 1, raftstar::Message{raftstar::RequestVote{2, 0, 2, 2}}));
  auto sent = env.take_for(0);
  ASSERT_EQ(sent.size(), 1u);
  const auto* r = std::get_if<raftstar::VoteReply>(
      std::any_cast<raftstar::Message>(&sent[0].payload));
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->granted);
  ASSERT_TRUE(r->has_snap);
  EXPECT_EQ(r->snap.last_index, 4);
  EXPECT_TRUE(r->snap.state == store.image());
  EXPECT_EQ(r->extra_from, 5);
  ASSERT_EQ(r->extras.size(), 2u);
  EXPECT_TRUE(r->extras[0].cmd == put(5));
  EXPECT_TRUE(r->extras[1].cmd == put(6));
}

TEST(RaftStarUnitTest, NewLeaderInstallsAVoterCheckpointAboveItsLog) {
  ScriptedEnv env;
  raftstar::RaftStarNode n(group_of(0, {0, 1, 2}), env, unit_options());
  kv::KvStore store;
  test::attach_store(n, store);
  n.start();
  n.on_packet(packet(2, 0,
                     raftstar::Message{make_append(1, 2, 0, 0, puts_to(2))}));
  n.force_election();
  ASSERT_EQ(n.current_term(), 2);
  kv::KvStore provider;
  n.on_packet(packet(1, 0,
                     raftstar::Message{vote_with_checkpoint(
                         checkpoint_at(4, provider),
                         {raftstar::Entry{1, put(5)}})}));
  ASSERT_TRUE(n.is_leader());
  // The checkpoint replaced the whole log: 3-4 are settled by it, not
  // refilled with no-ops.
  EXPECT_EQ(n.stats().snapshots_installed, 1);
  EXPECT_EQ(n.compaction_floor(), 4);
  EXPECT_EQ(n.applied_index(), 4);
  EXPECT_EQ(store.fingerprint(), provider.fingerprint());
  // Index 5 is the voter's value, adopted at the new term.
  ASSERT_EQ(n.last_index(), 5);
  EXPECT_EQ(n.resident_log_entries(), 1u);
  EXPECT_TRUE(n.entry_at(5).cmd == put(5));
  EXPECT_EQ(n.entry_at(5).term, 2);
}

TEST(RaftStarUnitTest, NewLeaderKeepsItsSuffixAboveAVoterCheckpoint) {
  ScriptedEnv env;
  raftstar::RaftStarNode n(group_of(0, {0, 1, 2}), env, unit_options());
  kv::KvStore store;
  test::attach_store(n, store);
  n.start();
  n.on_packet(packet(2, 0,
                     raftstar::Message{make_append(1, 2, 0, 0, puts_to(6))}));
  n.force_election();
  kv::KvStore provider;
  n.on_packet(packet(
      1, 0,
      raftstar::Message{vote_with_checkpoint(checkpoint_at(4, provider), {})}));
  ASSERT_TRUE(n.is_leader());
  EXPECT_EQ(n.stats().snapshots_installed, 1);
  EXPECT_EQ(n.compaction_floor(), 4);
  EXPECT_EQ(n.applied_index(), 4);
  EXPECT_EQ(store.fingerprint(), provider.fingerprint());
  // Raft* never erases accepted entries: 5-6 stay, at their creation term.
  ASSERT_EQ(n.last_index(), 6);
  EXPECT_TRUE(n.entry_at(5).cmd == put(5));
  EXPECT_TRUE(n.entry_at(6).cmd == put(6));
  EXPECT_EQ(n.entry_at(6).term, 1);
}

TEST(RaftStarUnitTest, FollowerAcksAnAppendBelowItsSnapshotBase) {
  ScriptedEnv env;
  raftstar::RaftStarNode n(group_of(1, {0, 1, 2}), env, unit_options());
  kv::KvStore store;
  test::attach_store(n, store);
  n.start();
  const std::vector<raftstar::Entry> ents = puts_to(4);
  n.on_packet(
      packet(0, 1, raftstar::Message{make_append(1, 0, 0, 0, ents, 4)}));
  n.compact();
  ASSERT_EQ(n.compaction_floor(), 4);
  env.clear();
  // A late batch covering 2-3: settled by the snapshot, acked as matched.
  n.on_packet(packet(0, 1,
                     raftstar::Message{make_append(1, 0, 1, 1,
                                                   {ents[1], ents[2]}, 4)}));
  auto sent = env.take_for(0);
  ASSERT_EQ(sent.size(), 1u);
  const auto* r = std::get_if<raftstar::AppendReply>(
      std::any_cast<raftstar::Message>(&sent[0].payload));
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->ok);
  EXPECT_EQ(r->match_index, 3);
  EXPECT_EQ(r->follower_last, 4);
  EXPECT_EQ(n.compaction_floor(), 4);
  EXPECT_EQ(n.last_index(), 4);
  EXPECT_EQ(n.applied_index(), 4);
}

// ---------------------------------------------------------------------------
// Cluster-level behaviour mirrors Raft's.
// ---------------------------------------------------------------------------

TEST(RaftStarClusterTest, ElectsAndCommits) {
  harness::Cluster cluster(test::lan_config(11));
  cluster.build_replicas(test::make_factory<raftstar::RaftStarNode>(
      test::fast_options<raftstar::Options>()));
  ASSERT_EQ(cluster.establish_leader(0), 0);
  cluster.metrics().set_window(0, kTimeMax);
  cluster.add_clients(2, test::small_workload(), cluster.sim().now());
  cluster.run_for(sec(5));
  EXPECT_GT(cluster.metrics().completed(), 500);
}

TEST(RaftStarClusterTest, FailoverPreservesAgreement) {
  auto record = std::make_shared<ApplyRecord>();
  harness::Cluster cluster(test::lan_config(12));
  cluster.build_replicas(test::make_factory<raftstar::RaftStarNode>(
      test::fast_options<raftstar::Options>(), record));
  ASSERT_EQ(cluster.establish_leader(0), 0);
  cluster.add_clients(2, test::small_workload(), cluster.sim().now());
  cluster.run_for(sec(2));
  const Time crash_at = cluster.sim().now();
  cluster.net().faults().crash(cluster.server(0).id(), crash_at,
                               crash_at + sec(5));
  cluster.run_for(sec(3));
  EXPECT_GE(cluster.leader_replica(), 1);
  cluster.run_for(sec(4));
  cluster.stop_clients();
  cluster.run_for(sec(3));
  EXPECT_FALSE(record->violation);
  EXPECT_TRUE(test::stores_converged(cluster));
}

TEST(RaftStarClusterTest, ConvergesUnderMessageLoss) {
  auto record = std::make_shared<ApplyRecord>();
  harness::Cluster cluster(test::lan_config(13));
  cluster.build_replicas(test::make_factory<raftstar::RaftStarNode>(
      test::fast_options<raftstar::Options>(), record));
  cluster.net().faults().set_drop_rate(0.05);
  ASSERT_GE(cluster.establish_leader(0), 0);
  cluster.add_clients(1, test::small_workload(), cluster.sim().now());
  cluster.run_for(sec(6));
  cluster.net().faults().set_drop_rate(0.0);
  cluster.stop_clients();
  cluster.run_for(sec(4));
  EXPECT_FALSE(record->violation);
  EXPECT_TRUE(test::stores_converged(cluster));
}

}  // namespace
}  // namespace praft
