// Durable hard state + write-ahead log with crash-restart recovery.
//
// Three layers under test:
//  * storage::DurableStore / storage::Persister in isolation (staging is
//    volatile until the fsync commits; snapshots truncate the WAL; sends
//    gate on the durability barrier; group commit coalesces syncs);
//  * per-protocol crash-restart through the harness (hard state persisted
//    before the dependent message leaves; recovery rebuilds the same state;
//    replay stays bounded by the snapshot floor);
//  * the chaos checker's recovery invariants end to end, including the
//    deliberate skip-fsync-before-vote-reply bug being convicted.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chaos/runner.h"
#include "common/rng.h"
#include "consensus/durable_log.h"
#include "consensus/group.h"
#include "consensus/log.h"
#include "consensus/registry.h"
#include "consensus/trace.h"
#include "harness/cluster.h"
#include "harness/log_server.h"
#include "kv/workload.h"
#include "raft/node.h"
#include "scripted_env.h"
#include "storage/persister.h"
#include "storage/wal.h"
#include "test_util.h"

using namespace praft;

namespace {

storage::WalRecord record_at(consensus::LogIndex i, consensus::Term term) {
  storage::WalRecord r;
  r.index = i;
  r.term = term;
  r.has_value = true;
  r.cmd = kv::noop_command();
  return r;
}

consensus::Group group_of(NodeId self, std::vector<NodeId> members) {
  consensus::Group g;
  g.self = self;
  g.members = std::move(members);
  return g;
}

}  // namespace

// ---------------------------------------------------------------------------
// DurableStore: the write-ahead discipline itself.
// ---------------------------------------------------------------------------

TEST(DurableStoreTest, StagedWritesAreVolatileUntilCommitted) {
  storage::DurableStore store;
  consensus::HardState hs;
  hs.term = 7;
  hs.vote = 2;
  store.stage_hard_state(hs);
  store.stage_record(record_at(1, 7));
  EXPECT_TRUE(store.dirty());
  EXPECT_FALSE(store.has_state());
  EXPECT_EQ(store.image().records.size(), 0u);

  store.commit_through(store.staged_seq());
  EXPECT_FALSE(store.dirty());
  EXPECT_TRUE(store.has_state());
  const storage::DurableImage img = store.image();
  EXPECT_EQ(img.hard.term, 7);
  EXPECT_EQ(img.hard.vote, 2);
  ASSERT_EQ(img.records.size(), 1u);
  EXPECT_EQ(img.records[0].index, 1);
}

TEST(DurableStoreTest, DropUnsyncedModelsAPowerCut) {
  storage::DurableStore store;
  consensus::HardState hs;
  hs.term = 3;
  store.stage_hard_state(hs);
  store.commit_through(store.staged_seq());

  hs.term = 9;  // staged but never synced: a crash must forget it
  store.stage_hard_state(hs);
  store.stage_record(record_at(1, 9));
  store.drop_unsynced();
  EXPECT_FALSE(store.dirty());
  EXPECT_EQ(store.image().hard.term, 3);
  EXPECT_EQ(store.image().records.size(), 0u);
}

TEST(DurableStoreTest, RecordsCoalescePerIndexAndTruncate) {
  storage::DurableStore store;
  for (consensus::LogIndex i = 1; i <= 5; ++i) {
    store.stage_record(record_at(i, 1));
  }
  store.stage_record(record_at(3, 2));  // re-accept overwrites, not appends
  store.commit_through(store.staged_seq());
  EXPECT_EQ(store.wal_records(), 5u);
  EXPECT_EQ(store.wal_tail(), 5);

  store.stage_truncate_after(2);  // conflict-suffix erasure
  store.commit_through(store.staged_seq());
  EXPECT_EQ(store.wal_records(), 2u);
  EXPECT_EQ(store.wal_tail(), 2);
}

TEST(DurableStoreTest, SnapshotSubstitutesForTheWalPrefix) {
  storage::DurableStore store;
  for (consensus::LogIndex i = 1; i <= 8; ++i) {
    store.stage_record(record_at(i, 1));
  }
  consensus::Snapshot snap;
  snap.last_index = 6;
  store.stage_snapshot(snap);
  store.commit_through(store.staged_seq());
  EXPECT_EQ(store.snapshot_floor(), 6);
  EXPECT_EQ(store.wal_records(), 2u);  // only 7, 8 left to replay
  const storage::DurableImage img = store.image();
  ASSERT_EQ(img.records.size(), 2u);
  EXPECT_EQ(img.records.front().index, 7);
  // Records staged later but covered by the snapshot stay dead.
  store.stage_record(record_at(4, 1));
  store.commit_through(store.staged_seq());
  EXPECT_EQ(store.wal_records(), 2u);
}

// MultiPaxos and Mencius stage sparse positions, in any order.
TEST(DurableStoreTest, GappedAndOutOfOrderIndicesKeepTheirPositions) {
  storage::DurableStore store;
  const auto commit = [&] { store.commit_through(store.staged_seq()); };
  // The WAL holds exactly `want` (ascending) and ends at `tail`.
  const auto expect_wal = [&](std::vector<consensus::LogIndex> want,
                              consensus::LogIndex tail) {
    std::vector<consensus::LogIndex> got;
    for (const storage::WalRecord& r : store.image().records) {
      got.push_back(r.index);
    }
    EXPECT_EQ(got, want);
    EXPECT_EQ(store.wal_records(), want.size());
    EXPECT_EQ(store.wal_tail(), tail);
  };

  store.stage_record(record_at(10, 1));
  store.stage_record(record_at(14, 1));  // leaves 11..13 open
  store.stage_record(record_at(12, 1));  // inside the gap
  store.stage_record(record_at(7, 1));   // below the front
  commit();
  expect_wal({7, 10, 12, 14}, 14);

  store.stage_record(record_at(12, 2));  // overwrite inside the gapped run
  commit();
  expect_wal({7, 10, 12, 14}, 14);
  EXPECT_EQ(store.image().records[2].term, 2);

  store.stage_truncate_after(13);  // lands in a gap
  commit();
  expect_wal({7, 10, 12}, 12);

  consensus::Snapshot snap;
  snap.last_index = 8;  // lands in a gap
  store.stage_snapshot(snap);
  commit();
  expect_wal({10, 12}, 12);

  store.stage_record(record_at(5, 1));  // at or below the floor: dead
  store.stage_record(record_at(9, 1));  // above the floor, below the front
  store.stage_record(record_at(11, 1));
  commit();
  expect_wal({9, 10, 11, 12}, 12);

  store.stage_truncate_after(8);  // below the front: the WAL empties
  commit();
  expect_wal({}, 8);  // an empty WAL ends at the snapshot floor

  store.stage_record(record_at(20, 3));
  commit();
  expect_wal({20}, 20);
  snap.last_index = 30;  // beyond every record
  store.stage_snapshot(snap);
  commit();
  expect_wal({}, 30);
}

// Recovery trusts each record's index (MultiPaxos and Mencius replay by it;
// only Raft's replay checks that the indexes run contiguously), so every
// record of an image must carry its own position. Each record here names
// its index in a field the WAL never reads, the command's key.
TEST(DurableStoreTest, ImageGivesEachRecordItsOwnIndex) {
  using consensus::LogIndex;
  storage::DurableStore store;
  const auto stage = [&](LogIndex i, consensus::Term term) {
    storage::WalRecord r = record_at(i, term);
    r.cmd.key = static_cast<uint64_t>(i);
    store.stage_record(r);
  };
  const auto expect_image = [&](const std::vector<LogIndex>& want) {
    store.commit_through(store.staged_seq());
    std::vector<LogIndex> got;
    for (const storage::WalRecord& r : store.image().records) {
      EXPECT_EQ(r.cmd.key, static_cast<uint64_t>(r.index));
      got.push_back(r.index);
    }
    EXPECT_EQ(got, want);
  };

  for (LogIndex i = 20; i <= 25; ++i) stage(i, 1);  // contiguous appends
  expect_image({20, 21, 22, 23, 24, 25});

  stage(30, 1);  // holes at 26..29 and 31..32
  stage(33, 1);
  stage(15, 1);  // below the front, with holes up to it
  stage(12, 1);
  stage(22, 2);  // an overwrite in place
  expect_image({12, 15, 20, 21, 22, 23, 24, 25, 30, 33});
  EXPECT_EQ(store.image().records[4].term, 2);

  store.stage_truncate_after(24);
  expect_image({12, 15, 20, 21, 22, 23, 24});

  consensus::Snapshot snap;
  snap.last_index = 16;
  store.stage_snapshot(snap);
  expect_image({20, 21, 22, 23, 24});
  stage(18, 1);  // above the floor, below the front
  stage(27, 1);
  expect_image({18, 20, 21, 22, 23, 24, 27});
}

TEST(DurableStoreTest, TruncationAcrossPagesEmptiesTheWal) {
  // The WAL's cells live in pages of 64 indexes; 10 and 70 sit in two.
  storage::DurableStore store;
  store.stage_record(record_at(10, 1));
  store.stage_record(record_at(70, 1));
  store.commit_through(store.staged_seq());
  EXPECT_EQ(store.wal_records(), 2u);
  EXPECT_EQ(store.wal_tail(), 70);
  store.stage_truncate_after(8);
  store.commit_through(store.staged_seq());
  EXPECT_EQ(store.wal_records(), 0u);
  EXPECT_EQ(store.wal_tail(), -1);
  EXPECT_TRUE(store.image().records.empty());
  store.stage_record(record_at(130, 2));
  store.stage_record(record_at(5, 2));
  store.stage_truncate_after(64);  // keeps 5, drops 130 two pages up
  store.commit_through(store.staged_seq());
  EXPECT_EQ(store.wal_records(), 1u);
  EXPECT_EQ(store.wal_tail(), 5);
}

// ---------------------------------------------------------------------------
// Persister: fsync barriers and group commit.
// ---------------------------------------------------------------------------

TEST(PersisterTest, SendsWaitForTheCoveringFsync) {
  test::ScriptedEnv env;
  storage::DurableStore store;
  env.set_store(&store);
  storage::Persister p(env, /*self=*/0, /*fsync=*/msec(2),
                       /*batch=*/msec(1),
                       [] { return consensus::HardState{}; });
  p.record(record_at(1, 1));
  p.send(7, std::string("hello"));
  EXPECT_TRUE(env.outbox.empty());  // gated: the record is not durable yet
  EXPECT_TRUE(store.dirty());
  env.advance(msec(10));
  EXPECT_EQ(env.outbox.size(), 1u);  // released by the completed fsync
  EXPECT_FALSE(store.dirty());
  EXPECT_EQ(store.wal_records(), 1u);
}

TEST(PersisterTest, BarrierRunsAfterDurabilityAndGroupCommitCoalesces) {
  test::ScriptedEnv env;
  storage::DurableStore store;
  env.set_store(&store);
  storage::Persister p(env, /*self=*/0, /*fsync=*/msec(2),
                       /*batch=*/msec(1),
                       [] { return consensus::HardState{}; });
  int fired = 0;
  for (int k = 1; k <= 5; ++k) {
    p.record(record_at(k, 1));
    p.barrier([&fired] { ++fired; });
  }
  EXPECT_EQ(fired, 0);
  env.advance(msec(10));
  EXPECT_EQ(fired, 5);
  // One group-commit window covered all five demands.
  EXPECT_EQ(store.syncs(), 1u);
  EXPECT_EQ(store.wal_records(), 5u);
}

TEST(PersisterTest, UnsyncedSendSkipsTheBarrier) {
  test::ScriptedEnv env;
  storage::DurableStore store;
  env.set_store(&store);
  storage::Persister p(env, /*self=*/0, /*fsync=*/msec(2),
                       /*batch=*/msec(1),
                       [] { return consensus::HardState{}; });
  p.record(record_at(1, 1));
  p.send_unsynced(7, std::string("leak"));
  EXPECT_EQ(env.outbox.size(), 1u);  // left before the record hit disk
  EXPECT_TRUE(store.dirty());        // ... and nothing armed a sync
}

/// Records the hard states a Persister reports, with the reporting replica.
struct SentStates final : consensus::Trace {
  void on_sent_state(NodeId r, const consensus::HardState& hs) override {
    sent.emplace_back(r, hs);
  }
  std::vector<std::pair<NodeId, consensus::HardState>> sent;
};

TEST(PersisterTest, TraceSeesTheSendTimeHardStateWhenTheMessageLeaves) {
  test::ScriptedEnv env;
  SentStates trace;
  env.set_trace(&trace);
  storage::DurableStore store;
  consensus::HardState hs;
  hs.term = 1;
  env.set_store(&store);
  storage::Persister p(env, /*self=*/3, /*fsync=*/msec(2),
                       /*batch=*/msec(1), [&hs] { return hs; });
  p.hard_state();
  p.send(7, std::string("vote"));  // depends on term 1, held for fsync
  hs.term = 2;
  p.hard_state();  // newer state staged while the message waits
  EXPECT_TRUE(trace.sent.empty());
  env.advance(msec(10));
  ASSERT_EQ(env.outbox.size(), 1u);
  ASSERT_EQ(trace.sent.size(), 1u);  // reported as the fsync released it
  EXPECT_EQ(trace.sent[0].first, 3);
  EXPECT_EQ(trace.sent[0].second.term, 1);  // not the newer term 2

  // The unsynced path reports at once, with the state current at the call.
  hs.term = 3;
  p.hard_state();
  p.send_unsynced(7, std::string("leak"));
  EXPECT_EQ(env.outbox.size(), 2u);
  ASSERT_EQ(trace.sent.size(), 2u);
  EXPECT_EQ(trace.sent[1].first, 3);
  EXPECT_EQ(trace.sent[1].second.term, 3);
  EXPECT_TRUE(store.dirty());
}

TEST(PersisterTest, ZeroCostStorageIsSynchronous) {
  test::ScriptedEnv env;
  storage::DurableStore store;
  env.set_store(&store);
  storage::Persister p(env, /*self=*/0, /*fsync=*/0,
                       /*batch=*/0, [] { return consensus::HardState{}; });
  p.record(record_at(1, 1));
  EXPECT_FALSE(store.dirty());  // committed inline
  p.send(7, std::string("now"));
  EXPECT_EQ(env.outbox.size(), 1u);  // never deferred
  bool ran = false;
  p.barrier([&ran] { ran = true; });
  EXPECT_TRUE(ran);
}

// ---------------------------------------------------------------------------
// Store-backed ContiguousLog: a durable entry lives only in the WAL.
// ---------------------------------------------------------------------------

namespace {

struct LogEntry {
  consensus::Term term = 0;
  kv::Command cmd;
};

/// One incarnation of a store-backed log, wired the way raft::Core wires
/// its own, over an Env of its own: a crash drops the pending fsync
/// completions with it. The clock resumes at `now`, where the store's disk
/// queue left off.
struct LogIncarnation {
  LogIncarnation(storage::DurableStore& store, Time now, Duration fsync,
                 Duration batch) {
    env.advance(now);
    env.set_store(&store);
    persister.emplace(env, 0, fsync, batch,
                      [] { return consensus::HardState{}; });
    mirror.emplace(*persister, log);
  }
  test::ScriptedEnv env;
  consensus::ContiguousLog<LogEntry> log;
  std::optional<storage::Persister> persister;
  std::optional<consensus::DurableLogMirror<LogEntry>> mirror;
};

/// Random appends, truncations, compactions, snapshot resets, fsync
/// completions and crashes (drop_unsynced, then replay into a fresh log),
/// against a std::vector reference. After every step each position in
/// [base, last] must read as the reference holds it, resident_entries()
/// must be last - base, and memory must hold exactly the positions above
/// the fsync-covered prefix.
void fuzz_store_backed_log(Duration fsync, Duration batch, uint64_t seed) {
  using consensus::LogIndex;
  storage::DurableStore store;
  Rng rng(seed);
  auto node = std::make_unique<LogIncarnation>(store, 0, fsync, batch);
  std::vector<LogEntry> ref(1);  // ref[i] for i in [base, last]
  LogIndex base = 0;
  consensus::Term term = 1;
  uint64_t next_value = 1;
  int store_reads = 0;    // checks that read some position from the WAL
  int unsynced_tail = 0;  // checks that found an unsynced suffix in memory

  for (int step = 0; step < 3000; ++step) {
    LogIncarnation& n = *node;
    const LogIndex last = n.log.last_index();
    const uint64_t die = rng.below(100);
    std::string op;
    if (die < 40) {
      op = "append";
      if (rng.below(8) == 0) ++term;
      const uint64_t k = 1 + rng.below(3);
      for (uint64_t j = 0; j < k; ++j) {
        LogEntry e;
        e.term = term;
        e.cmd.op = kv::Op::kPut;
        e.cmd.key = next_value % 7;
        e.cmd.value = next_value++;
        n.log.append(e);
        ref.push_back(e);
      }
      n.mirror->note_appended(nullptr);
    } else if (die < 52) {
      const LogIndex cut =
          base + static_cast<LogIndex>(
                     rng.below(static_cast<uint64_t>(last - base + 1)));
      op = "truncate_after " + std::to_string(cut);
      n.log.truncate_after(cut);
      ref.resize(static_cast<size_t>(cut) + 1);
    } else if (die < 60) {
      const LogIndex to =
          base + static_cast<LogIndex>(
                     rng.below(static_cast<uint64_t>(last - base + 1)));
      op = "compact_to " + std::to_string(to);
      if (to > base) {
        // raft::Core's order: compact, then stage the covering snapshot.
        n.log.compact_to(to);
        consensus::Snapshot snap;
        snap.last_index = to;
        snap.last_term = ref[static_cast<size_t>(to)].term;
        n.persister->snapshot(snap);
        base = to;
      }
    } else if (die < 64) {
      // Snapshot install over a conflicting or short log: stage the
      // snapshot, then restart the log at its boundary.
      consensus::Snapshot snap;
      snap.last_index =
          base + 1 +
          static_cast<LogIndex>(
              rng.below(static_cast<uint64_t>(last - base + 3)));
      snap.last_term = ++term;
      op = "reset_to " + std::to_string(snap.last_index);
      n.persister->snapshot(snap);
      n.log.reset_to(snap.last_index, snap.last_term);
      base = snap.last_index;
      ref.resize(static_cast<size_t>(base) + 1);
      ref[static_cast<size_t>(base)] = LogEntry{snap.last_term, {}};
    } else if (die < 95) {
      const Duration d = static_cast<Duration>(rng.below(msec(3)));
      op = "advance " + std::to_string(d);
      n.env.advance(d);  // fsync completions fire
    } else {
      op = "crash";
      const Time now = n.env.now();
      store.drop_unsynced();
      node = std::make_unique<LogIncarnation>(store, now, fsync, batch);
      const storage::DurableImage img = store.image();
      node->mirror->replay(img);
      base = img.snap.valid() ? img.snap.last_index : 0;
      ref.assign(static_cast<size_t>(base) + 1, LogEntry{});
      ref.back().term = img.snap.valid() ? img.snap.last_term : 0;
      for (const storage::WalRecord& r : img.records) {
        ref.push_back(LogEntry{r.term, r.cmd});
      }
    }

    SCOPED_TRACE("step " + std::to_string(step) + ": " + op);
    const LogIncarnation& m = *node;
    const LogIndex now_last = static_cast<LogIndex>(ref.size()) - 1;
    ASSERT_EQ(m.log.base_index(), base);
    ASSERT_EQ(m.log.last_index(), now_last);
    ASSERT_EQ(m.log.resident_entries(), static_cast<size_t>(now_last - base));
    ASSERT_EQ(m.log.at(base).term, ref[static_cast<size_t>(base)].term);
    for (LogIndex i = base + 1; i <= now_last; ++i) {
      const LogEntry e = m.log.at(i);
      ASSERT_EQ(e.term, ref[static_cast<size_t>(i)].term) << "index " << i;
      ASSERT_TRUE(e.cmd == ref[static_cast<size_t>(i)].cmd) << "index " << i;
    }
    const LogIndex synced = std::max(base, m.mirror->durable_index());
    ASSERT_EQ(m.log.memory_entries(), static_cast<size_t>(now_last - synced));
    if (fsync == 0 && batch == 0) {
      ASSERT_EQ(m.log.memory_entries(), 0u);
    }
    if (m.log.memory_entries() < m.log.resident_entries()) ++store_reads;
    if (m.log.memory_entries() > 0) ++unsynced_tail;
  }
  EXPECT_GT(store_reads, 1000);
  if (fsync > 0) {
    EXPECT_GT(unsynced_tail, 100);
  }
}

}  // namespace

TEST(StoreBackedLogTest, RandomOpsMatchAReferenceUnderZeroCostStorage) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    fuzz_store_backed_log(0, 0, seed);
  }
}

TEST(StoreBackedLogTest, RandomOpsMatchAReferenceUnderModeledFsync) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    fuzz_store_backed_log(msec(2), msec(1), seed);
  }
}

// ---------------------------------------------------------------------------
// Protocol-level write-ahead discipline (scripted, no simulator).
// ---------------------------------------------------------------------------

TEST(RaftDurabilityTest, VoteIsOnDiskBeforeTheReplyLeaves) {
  test::ScriptedEnv env;
  storage::DurableStore store;
  raft::Options opt;
  opt.fsync_duration = msec(2);
  opt.sync_batch_delay = msec(1);
  env.set_store(&store);
  raft::RaftNode node(group_of(0, {0, 1, 2}), env, opt);
  node.start();

  raft::RequestVote rv{/*term=*/5, /*candidate=*/1, 0, 0};
  node.on_packet(test::packet(1, 0, 64, raft::Message{rv}));
  // The vote is granted in memory immediately...
  EXPECT_EQ(node.current_term(), 5);
  // ...but the reply must NOT leave before the fsync barrier clears, and
  // the durable image must already hold the vote when it does.
  EXPECT_TRUE(env.take_for(1).empty());
  env.advance(msec(10));
  const auto sent = env.take_for(1);
  ASSERT_EQ(sent.size(), 1u);
  const auto* msg = std::any_cast<raft::Message>(&sent[0].payload);
  ASSERT_NE(msg, nullptr);
  const auto* reply = std::get_if<raft::VoteReply>(msg);
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->granted);
  EXPECT_EQ(store.hard_state().term, 5);
  EXPECT_EQ(store.hard_state().vote, 1);
}

TEST(RaftDurabilityTest, SkipVoteFsyncBugLeaksTheReply) {
  test::ScriptedEnv env;
  storage::DurableStore store;
  raft::Options opt;
  opt.fsync_duration = msec(2);
  opt.sync_batch_delay = msec(1);
  opt.unsafe_skip_vote_fsync = true;
  env.set_store(&store);
  raft::RaftNode node(group_of(0, {0, 1, 2}), env, opt);
  node.start();

  raft::RequestVote rv{/*term=*/5, /*candidate=*/1, 0, 0};
  node.on_packet(test::packet(1, 0, 64, raft::Message{rv}));
  // The buggy node replies immediately, while its durable vote is stale —
  // exactly the window the chaos checker's regression invariant convicts.
  ASSERT_EQ(env.take_for(1).size(), 1u);
  EXPECT_EQ(store.hard_state().term, 0);
}

TEST(RaftDurabilityTest, RecoverRebuildsTermVoteAndLog) {
  test::ScriptedEnv env;
  storage::DurableStore store;
  {
    raft::Options opt;  // zero-cost storage: everything durable synchronously
    env.set_store(&store);
    raft::RaftNode node(group_of(0, {0}), env, opt);
    node.start();
    node.force_election();  // single-node group: leader immediately
    ASSERT_TRUE(node.is_leader());
    kv::Command cmd;
    cmd.op = kv::Op::kPut;
    cmd.key = 11;
    cmd.value = 42;
    ASSERT_GE(node.submit(cmd), 0);
    env.advance(msec(50));
  }
  // Crash: the node object is gone; rebuild purely from the durable image.
  test::ScriptedEnv env2;
  env2.set_store(&store);
  raft::RaftNode revived(group_of(0, {0}), env2, raft::Options{});
  const storage::RecoveryStats stats = revived.recover(store.image());
  EXPECT_TRUE(stats.recovered);
  EXPECT_EQ(revived.current_term(), 1);
  EXPECT_EQ(revived.last_index(), 2);  // leader no-op + the put
  EXPECT_EQ(revived.entry_at(2).cmd.key, 11u);
  EXPECT_LE(stats.replayed,
            static_cast<size_t>(stats.wal_tail - stats.snapshot_floor));
}

TEST(EnvStoreTest, EveryRegistryProtocolPersistsThroughTheEnvStore) {
  for (const std::string& name : consensus::protocol_names()) {
    SCOPED_TRACE(name);
    test::ScriptedEnv env;
    storage::DurableStore store;
    env.set_store(&store);
    auto node = consensus::make_node(name, group_of(0, {0}), env);
    node->start();
    node->force_election();  // a one-member group leads at once
    env.advance(msec(500));
    kv::Command cmd;
    cmd.op = kv::Op::kPut;
    cmd.key = 5;
    cmd.value = 6;
    ASSERT_GE(node->submit(cmd), 0);
    env.advance(msec(50));
    EXPECT_TRUE(store.has_state());
    EXPECT_GE(store.wal_records(), 1u);
    // What the store holds rebuilds the node on a fresh Env.
    test::ScriptedEnv env2;
    env2.set_store(&store);
    auto revived = consensus::make_node(name, group_of(0, {0}), env2);
    EXPECT_TRUE(revived->recover(store.image()).recovered);
  }
}

// ---------------------------------------------------------------------------
// Full-harness crash-restart, every protocol.
// ---------------------------------------------------------------------------

namespace {

consensus::TimingOptions lan_durable_timing() {
  consensus::TimingOptions t;
  t.election_timeout_min = msec(300);
  t.election_timeout_max = msec(600);
  t.heartbeat_interval = msec(60);
  t.fsync_duration = msec(1);
  t.sync_batch_delay = msec(1);
  return t;
}

void run_traffic(harness::Cluster& cluster, Duration d) {
  kv::WorkloadConfig wl;
  wl.read_fraction = 0.5;
  wl.num_records = 64;
  cluster.add_clients(1, wl, cluster.sim().now());
  cluster.run_for(d);
  cluster.stop_clients();
  cluster.run_for(sec(3));  // drain + re-converge
}

}  // namespace

TEST(CrashRestartTest, RecoveryRebuildsIdenticalStateAllProtocols) {
  for (const std::string protocol :
       {"raft", "raftstar", "multipaxos", "mencius"}) {
    SCOPED_TRACE(protocol);
    harness::ClusterConfig cfg;
    cfg.num_replicas = 3;
    cfg.seed = 99;
    harness::Cluster cluster(cfg);
    cluster.build_replicas(protocol, lan_durable_timing());
    int victim = 2;
    if (!cluster.server(0).leaderless()) {
      const int leader = cluster.establish_leader(0, sec(20));
      ASSERT_GE(leader, 0);
      victim = (leader + 1) % cluster.num_replicas();
    } else {
      cluster.run_for(msec(500));
    }
    run_traffic(cluster, sec(4));

    auto& before = cluster.server(victim).node_iface();
    const consensus::HardState hs_before = before.hard_state();
    const consensus::LogIndex applied_before = before.applied_index();
    ASSERT_GT(applied_before, 0);
    const uint64_t fp_before =
        cluster.server(victim).store().fingerprint();

    cluster.restart_replica(victim);
    auto& ls = cluster.server(victim);
    // Hard state survives exactly (the quiesced cluster had synced it all).
    EXPECT_EQ(ls.node_iface().hard_state(), hs_before);
    const storage::RecoveryStats& stats = ls.recovery();
    EXPECT_TRUE(stats.recovered);
    EXPECT_LE(stats.replayed,
              static_cast<size_t>(
                  std::max<consensus::LogIndex>(0, stats.wal_tail -
                                                       stats.snapshot_floor)));
    // After rejoining, the replica re-converges to the exact same store.
    cluster.run_for(sec(5));
    EXPECT_GE(cluster.server(victim).node_iface().applied_index(),
              applied_before)
        << protocol;
    EXPECT_EQ(cluster.server(victim).store().fingerprint(), fp_before);
  }
}

TEST(CrashRestartTest, DurableHardStateTracksInMemoryAtQuiesce) {
  for (const std::string protocol :
       {"raft", "raftstar", "multipaxos", "mencius"}) {
    SCOPED_TRACE(protocol);
    harness::ClusterConfig cfg;
    cfg.num_replicas = 3;
    cfg.seed = 7;
    harness::Cluster cluster(cfg);
    cluster.build_replicas(protocol, lan_durable_timing());
    if (!cluster.server(0).leaderless()) {
      ASSERT_GE(cluster.establish_leader(1, sec(20)), 0);
    } else {
      cluster.run_for(msec(500));
    }
    run_traffic(cluster, sec(3));
    for (int i = 0; i < cluster.num_replicas(); ++i) {
      // Every hard-state change was followed by a dependent message, and
      // every message waited for its fsync: at quiesce, disk == memory.
      EXPECT_EQ(cluster.store_of(i).hard_state().term,
                cluster.server(i).node_iface().hard_state().term)
          << protocol << " replica " << i;
    }
  }
}

TEST(CrashRestartTest, ChaosBatchWithRestartsAllProtocols) {
  for (const std::string protocol :
       {"raft", "raftstar", "multipaxos", "mencius"}) {
    for (uint64_t seed = 1; seed <= 25; ++seed) {
      chaos::RunOptions opt;
      opt.protocol = protocol;
      opt.seed = seed;
      opt.crash_restarts = true;
      const chaos::RunResult r = chaos::run_one(opt);
      ASSERT_TRUE(r.ok) << protocol << " seed " << seed << ": "
                        << (r.violations.empty() ? "?" : r.violations[0]);
    }
  }
}

TEST(CrashRestartTest, ChaosRestartsOverZeroCostStores) {
  // Zero-cost stores sync every write at once, so a Raft log keeps no
  // durable entry in memory and a restarted replica reads its whole log
  // from the WAL. Every --restarts default arms a 2 ms fsync; this leg
  // restarts replicas in the storage mode registry defaults run in.
  for (const std::string protocol : {"raft", "raftstar"}) {
    uint64_t restarts = 0;
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      chaos::RunOptions opt;
      opt.protocol = protocol;
      opt.seed = seed;
      opt.crash_restarts = true;
      opt.fsync = 0;
      opt.sync_batch = 0;
      const chaos::RunResult r = chaos::run_one(opt);
      ASSERT_TRUE(r.ok) << protocol << " seed " << seed << ": "
                        << (r.violations.empty() ? "?" : r.violations[0]);
      EXPECT_NE(r.repro.find("--fsync=0 --sync-batch=0"), std::string::npos)
          << r.repro;
      restarts += r.restarts;
    }
    EXPECT_GE(restarts, 1u) << protocol << ": no replica restarted";
  }
}

TEST(CrashRestartTest, ChaosRestartsComposeWithCompaction) {
  for (const std::string protocol :
       {"raft", "raftstar", "multipaxos", "mencius"}) {
    for (uint64_t seed = 1; seed <= 15; ++seed) {
      chaos::RunOptions opt;
      opt.protocol = protocol;
      opt.seed = seed;
      opt.crash_restarts = true;
      opt.compaction_log_cap = 64;  // snapshots bound recovery replay
      const chaos::RunResult r = chaos::run_one(opt);
      ASSERT_TRUE(r.ok) << protocol << " seed " << seed << ": "
                        << (r.violations.empty() ? "?" : r.violations[0]);
    }
  }
}

TEST(CrashRestartTest, MissingVoteFsyncConvictedWithin50Seeds) {
  // The acceptance bar for the whole durability layer: the classic
  // skip-fsync-before-vote-reply bug must be caught fast for every protocol
  // whose phase-1 vote/promise reply carries it.
  for (const std::string protocol : {"raft", "raftstar", "multipaxos"}) {
    SCOPED_TRACE(protocol);
    bool caught = false;
    for (uint64_t seed = 1; seed <= 50 && !caught; ++seed) {
      chaos::RunOptions opt;
      opt.protocol = protocol;
      opt.seed = seed;
      opt.inject_persistence_bug = true;
      const chaos::RunResult r = chaos::run_one(opt);
      caught = !r.ok;
    }
    EXPECT_TRUE(caught) << protocol
                        << ": persistence bug survived 50 seeded runs";
  }
}

TEST(CrashRestartTest, MenciusMissingFsyncConvicted) {
  // Mencius's literal vote (RevPrepareOk) is rare and its constant traffic
  // narrows the unsynced window, so its conviction budget is larger; the
  // injected bug also leaks the Phase2b ack (see mencius/node.cpp).
  bool caught = false;
  for (uint64_t seed = 1; seed <= 150 && !caught; ++seed) {
    chaos::RunOptions opt;
    opt.protocol = "mencius";
    opt.seed = seed;
    opt.inject_persistence_bug = true;
    const chaos::RunResult r = chaos::run_one(opt);
    caught = !r.ok;
  }
  EXPECT_TRUE(caught) << "mencius: persistence bug survived 150 seeded runs";
}
