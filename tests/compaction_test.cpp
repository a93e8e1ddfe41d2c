// Log compaction + snapshot state transfer, across layers: the storage
// primitives (ContiguousLog compacted prefix, SparseLog checkpoint floor,
// Applier snapshot hooks), the per-protocol catch-up paths (InstallSnapshot
// for Raft/Raft*, commit-floor snapshot learning for MultiPaxos/Mencius),
// and the chaos invariants that must hold across snapshot installs.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "chaos/runner.h"
#include "common/check.h"
#include "consensus/applier.h"
#include "consensus/log.h"
#include "consensus/registry.h"
#include "harness/cluster.h"
#include "harness/log_server.h"
#include "kv/store.h"

namespace praft {
namespace {

using consensus::LogIndex;

consensus::NodeIface& iface(harness::Cluster& cluster, int i) {
  return cluster.server(i).node_iface();
}

// ---------------------------------------------------------------------------
// ContiguousLog: compacted prefix semantics.
// ---------------------------------------------------------------------------

struct TestEntry {
  consensus::Term term = 0;
  kv::Command cmd;
};

TestEntry entry(consensus::Term term, uint64_t value) {
  kv::Command cmd;
  cmd.value = value;
  return TestEntry{term, cmd};
}

TEST(ContiguousLogCompactionTest, CompactToMovesBaseAndKeepsSuffix) {
  consensus::ContiguousLog<TestEntry> log;
  for (int i = 1; i <= 10; ++i) log.append(entry(i, 100u * i));
  EXPECT_EQ(log.base_index(), 0);
  EXPECT_EQ(log.last_index(), 10);
  EXPECT_EQ(log.resident_entries(), 10u);

  log.compact_to(6);
  EXPECT_EQ(log.base_index(), 6);
  EXPECT_EQ(log.first_index(), 7);
  EXPECT_EQ(log.last_index(), 10);
  EXPECT_EQ(log.resident_entries(), 4u);
  // The entry at the base became the sentinel: its term still answers
  // prev-checks at the snapshot boundary.
  EXPECT_EQ(log.at(6).term, 6);
  EXPECT_EQ(log.at(7).cmd.value, 700u);
  EXPECT_EQ(log.at(10).cmd.value, 1000u);
  // Reads into the compacted prefix are protocol bugs.
  EXPECT_THROW((void)log.at(5), CheckFailure);
}

TEST(ContiguousLogCompactionTest, CompactToSameBaseIsANoOp) {
  consensus::ContiguousLog<TestEntry> log;
  log.append(entry(1, 1));
  log.compact_to(1);
  log.compact_to(1);
  EXPECT_EQ(log.base_index(), 1);
  EXPECT_EQ(log.resident_entries(), 0u);
}

TEST(ContiguousLogCompactionTest, TruncateAfterInteractsWithCompactedPrefix) {
  consensus::ContiguousLog<TestEntry> log;
  for (int i = 1; i <= 10; ++i) log.append(entry(i, i));
  log.compact_to(5);
  // Truncating above the base erases the suffix.
  log.truncate_after(7);
  EXPECT_EQ(log.last_index(), 7);
  // Truncating down TO the base keeps just the sentinel.
  log.truncate_after(5);
  EXPECT_EQ(log.last_index(), 5);
  EXPECT_EQ(log.resident_entries(), 0u);
  // Truncating INTO the compacted prefix is impossible: those entries are a
  // committed, snapshotted prefix.
  EXPECT_THROW(log.truncate_after(4), CheckFailure);
  // Appends continue above the sentinel.
  log.append(entry(9, 99));
  EXPECT_EQ(log.last_index(), 6);
  EXPECT_EQ(log.at(6).cmd.value, 99u);
}

TEST(ContiguousLogCompactionTest, ResetToRestartsAtSnapshotBoundary) {
  consensus::ContiguousLog<TestEntry> log;
  for (int i = 1; i <= 3; ++i) log.append(entry(1, i));
  log.reset_to(42, 7);
  EXPECT_EQ(log.base_index(), 42);
  EXPECT_EQ(log.last_index(), 42);
  EXPECT_EQ(log.at(42).term, 7);
  log.append(entry(8, 1));
  EXPECT_EQ(log.last_index(), 43);
}

// ---------------------------------------------------------------------------
// SparseLog: checkpoint floor.
// ---------------------------------------------------------------------------

TEST(SparseLogFloorTest, SetFloorPrunesAndRunsCleanup) {
  consensus::SparseLog<int> log;
  for (LogIndex i = 0; i <= 9; ++i) log.materialize(i) = static_cast<int>(i);
  int cleaned = 0;
  log.set_floor(4, [&](LogIndex, const int&) { ++cleaned; });
  EXPECT_EQ(cleaned, 5);  // slots 0..4
  EXPECT_EQ(log.size(), 5u);
  EXPECT_EQ(log.floor(), 4);
  EXPECT_EQ(log.find(4), nullptr);
  ASSERT_NE(log.find(5), nullptr);
  // The floor is monotone: lowering it is a no-op.
  log.set_floor(2);
  EXPECT_EQ(log.floor(), 4);
}

TEST(SparseLogFloorTest, CleanupSeesOnlyPresentSlotsInAscendingOrder) {
  consensus::SparseLog<int> log;
  for (const LogIndex i : {30, 4, 17, 9, 12, 25}) {
    log.materialize(i) = static_cast<int>(i);
  }
  log.erase(12);  // a hole between present slots
  std::vector<LogIndex> seen;
  auto record = [&](LogIndex i, const int& v) {
    EXPECT_EQ(v, i);
    seen.push_back(i);
  };
  log.set_floor(20, record);
  EXPECT_EQ(seen, (std::vector<LogIndex>{4, 9, 17}));
  EXPECT_EQ(log.size(), 2u);
  // A floor inside the gap between 25 and 30 prunes 25 only.
  seen.clear();
  log.set_floor(27, record);
  EXPECT_EQ(seen, (std::vector<LogIndex>{25}));
  EXPECT_EQ(log.size(), 1u);
  ASSERT_NE(log.find(30), nullptr);
  EXPECT_EQ(*log.find(30), 30);
}

TEST(SparseLogFloorTest, MaterializeBelowFloorIsABug) {
  consensus::SparseLog<int> log;
  log.set_floor(10);
  EXPECT_THROW((void)log.materialize(10), CheckFailure);
  EXPECT_THROW((void)log.materialize(3), CheckFailure);
  log.materialize(11) = 1;  // first slot above the floor is fine
  EXPECT_EQ(log.size(), 1u);
}

// ---------------------------------------------------------------------------
// Applier: snapshot hooks.
// ---------------------------------------------------------------------------

TEST(ApplierSnapshotTest, InstallJumpsWatermarksAndRestoresState) {
  consensus::Applier applier;
  kv::KvStore store;
  applier.set_state_hooks([&store] { return store.image(); },
                          [&store](const kv::StoreImage& img,
                                   consensus::LogIndex) { store.restore(img); });

  kv::KvStore donor;
  kv::Command put;
  put.op = kv::Op::kPut;
  put.key = 5;
  put.value = 123;
  donor.apply(put);

  consensus::Snapshot snap;
  snap.last_index = 40;
  snap.state = donor.image();
  EXPECT_TRUE(applier.install_snapshot(snap));
  EXPECT_EQ(applier.applied(), 40);
  EXPECT_EQ(applier.commit_index(), 40);
  EXPECT_EQ(store.fingerprint(), donor.fingerprint());
  // Stale snapshots are rejected (no backward jumps, no duplicate applies).
  consensus::Snapshot stale;
  stale.last_index = 39;
  stale.state = donor.image();
  EXPECT_FALSE(applier.install_snapshot(stale));
  EXPECT_EQ(applier.applied(), 40);
}

TEST(ApplierSnapshotTest, DrainResumesContiguouslyAfterInstall) {
  consensus::Applier applier;
  kv::KvStore store;
  applier.set_state_hooks([&store] { return store.image(); },
                          [&store](const kv::StoreImage& img,
                                   consensus::LogIndex) { store.restore(img); });
  std::vector<consensus::LogIndex> applied;
  applier.set_apply([&](consensus::LogIndex i, const kv::Command&) {
    applied.push_back(i);
  });

  consensus::Snapshot snap;
  snap.last_index = 10;
  EXPECT_TRUE(applier.install_snapshot(snap));

  const kv::Command noop = kv::noop_command();
  applier.commit_to(12, [&](consensus::LogIndex) { return &noop; });
  ASSERT_EQ(applied.size(), 2u);
  EXPECT_EQ(applied[0], 11);  // exactly-once: resumes right after the jump
  EXPECT_EQ(applied[1], 12);
}

// ---------------------------------------------------------------------------
// TimingOptions::compaction_due: the shared size-or-force policy.
// ---------------------------------------------------------------------------

TEST(CompactionTriggerTest, SizeAndForceLegs) {
  consensus::TimingOptions opt;

  // Disabled policy: only force fires, and never with nothing to compact.
  EXPECT_FALSE(opt.compaction_due(100, /*force=*/false));
  EXPECT_TRUE(opt.compaction_due(100, /*force=*/true));
  EXPECT_FALSE(opt.compaction_due(0, /*force=*/true));

  // Size leg: strictly above the cap.
  opt.compaction_log_cap = 10;
  EXPECT_FALSE(opt.compaction_due(10, false));
  EXPECT_TRUE(opt.compaction_due(11, false));
}

// ---------------------------------------------------------------------------
// Registry ergonomics: unknown names list what IS registered.
// ---------------------------------------------------------------------------

TEST(RegistryErrorTest, UnknownProtocolListsRegisteredNames) {
  harness::ClusterConfig cfg;
  cfg.num_replicas = 3;
  harness::Cluster cluster(cfg);
  try {
    cluster.build_replicas("raftt");
    FAIL() << "expected a CheckFailure for the unknown protocol";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("raftt"), std::string::npos) << what;
    EXPECT_NE(what.find("registered protocols"), std::string::npos) << what;
    EXPECT_NE(what.find("multipaxos"), std::string::npos) << what;
    EXPECT_NE(what.find("mencius"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// End-to-end per-protocol: a crashed replica catches up via snapshot
// transfer instead of full log replay, and the cluster converges.
// ---------------------------------------------------------------------------

struct CatchUp {
  bool caught_up = false;
  int64_t snapshots = 0;
  size_t max_resident = 0;
  bool stores_converged = false;
  consensus::LogIndex log_len = 0;
};

CatchUp run_catchup(const std::string& protocol, size_t cap,
                    Duration crash_for = sec(8)) {
  harness::ClusterConfig cfg;
  cfg.num_replicas = 5;
  cfg.seed = 99;
  harness::Cluster cluster(cfg);

  consensus::TimingOptions timing;
  timing.election_timeout_min = msec(300);
  timing.election_timeout_max = msec(600);
  timing.heartbeat_interval = msec(60);
  timing.compaction_log_cap = cap;
  cluster.build_replicas(protocol, timing);

  if (!cluster.server(0).leaderless()) {
    cluster.establish_leader(0, sec(10));
  } else {
    cluster.run_for(msec(500));
  }

  const int victim = 2;
  const Time down_from = cluster.sim().now() + sec(1);
  const Time down_to = down_from + crash_for;
  cluster.net().faults().crash(cluster.server(victim).id(), down_from,
                               down_to);

  kv::WorkloadConfig wl;
  wl.read_fraction = 0.5;
  wl.value_size = 8;
  cluster.add_clients(4, wl, cluster.sim().now());

  CatchUp out;
  while (cluster.sim().now() < down_to) {
    cluster.run_for(msec(100));
    for (int i = 0; i < cluster.num_replicas(); ++i) {
      out.max_resident =
          std::max(out.max_resident, iface(cluster, i).resident_log_entries());
    }
  }
  consensus::LogIndex target = 0;
  for (int i = 0; i < cluster.num_replicas(); ++i) {
    if (i == victim) continue;
    target = std::max(target, iface(cluster, i).applied_index());
  }
  out.log_len = target;

  const Time deadline = down_to + sec(30);
  while (iface(cluster, victim).applied_index() < target &&
         cluster.sim().now() < deadline) {
    cluster.run_for(msec(50));
  }
  out.caught_up = iface(cluster, victim).applied_index() >= target;
  out.snapshots = iface(cluster, victim).stats().snapshots_installed;

  cluster.stop_clients();
  cluster.run_for(sec(5));
  out.stores_converged = true;
  consensus::LogIndex max_applied = 0;
  for (int i = 0; i < cluster.num_replicas(); ++i) {
    max_applied = std::max(max_applied, iface(cluster, i).applied_index());
  }
  for (int i = 1; i < cluster.num_replicas(); ++i) {
    if (iface(cluster, i).applied_index() != max_applied ||
        cluster.server(i).store().fingerprint() !=
            cluster.server(0).store().fingerprint()) {
      out.stores_converged = false;
    }
  }
  return out;
}

class SnapshotCatchUpTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SnapshotCatchUpTest, LaggardCatchesUpViaSnapshotAndConverges) {
  const CatchUp r = run_catchup(GetParam(), /*cap=*/128);
  EXPECT_TRUE(r.caught_up) << GetParam() << " never reached the live "
                           << "replicas' applied watermark " << r.log_len;
  EXPECT_GE(r.snapshots, 1) << GetParam()
                            << " caught up by log replay, not state transfer";
  EXPECT_TRUE(r.stores_converged) << GetParam();
  // Bounded memory: no replica's resident log grew anywhere near the
  // uncompacted log length (cap + un-appliable in-flight tail only).
  EXPECT_LT(r.max_resident, static_cast<size_t>(r.log_len))
      << GetParam() << " kept the whole log resident";
}

TEST_P(SnapshotCatchUpTest, WithoutCompactionCatchUpIsFullReplay) {
  const CatchUp r = run_catchup(GetParam(), /*cap=*/0);
  EXPECT_TRUE(r.caught_up) << GetParam();
  EXPECT_EQ(r.snapshots, 0) << GetParam()
                            << " shipped a snapshot with compaction off";
  EXPECT_TRUE(r.stores_converged) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, SnapshotCatchUpTest,
                         ::testing::Values("raft", "raftstar", "multipaxos",
                                           "mencius"));

// ---------------------------------------------------------------------------
// Edge: a forced snapshot exactly at the commit floor, then more traffic.
// ---------------------------------------------------------------------------

TEST(CompactionEdgeTest, SnapshotExactlyAtCommitFloor) {
  for (const std::string& protocol : consensus::protocol_names()) {
    harness::ClusterConfig cfg;
    cfg.num_replicas = 3;
    cfg.seed = 7;
    harness::Cluster cluster(cfg);
    consensus::TimingOptions timing;
    timing.election_timeout_min = msec(300);
    timing.election_timeout_max = msec(600);
    timing.heartbeat_interval = msec(60);
    cluster.build_replicas(protocol, timing);
    if (!cluster.server(0).leaderless()) {
      cluster.establish_leader(0, sec(10));
    } else {
      cluster.run_for(msec(500));
    }
    kv::WorkloadConfig wl;
    wl.read_fraction = 0.0;
    cluster.add_clients(2, wl, cluster.sim().now());
    cluster.run_for(sec(2));

    // Force a checkpoint on every replica with the commit floor fully
    // applied (quiesce first), i.e. the snapshot lands exactly at the
    // commit floor, then resume traffic across the boundary.
    cluster.stop_clients();
    cluster.run_for(sec(2));
    for (int i = 0; i < cluster.num_replicas(); ++i) {
      auto& node = iface(cluster, i);
      node.compact();
      EXPECT_EQ(node.compaction_floor(), node.applied_index())
          << protocol << " replica " << i;
      EXPECT_EQ(node.compactable_entries(), 0u) << protocol;
    }
    cluster.add_clients(2, wl, cluster.sim().now());
    cluster.run_for(sec(3));
    cluster.stop_clients();
    cluster.run_for(sec(3));

    consensus::LogIndex max_applied = 0;
    for (int i = 0; i < cluster.num_replicas(); ++i) {
      max_applied = std::max(max_applied, iface(cluster, i).applied_index());
    }
    for (int i = 0; i < cluster.num_replicas(); ++i) {
      EXPECT_EQ(iface(cluster, i).applied_index(), max_applied)
          << protocol << " replica " << i << " stalled after the checkpoint";
      EXPECT_EQ(cluster.server(i).store().fingerprint(),
                cluster.server(0).store().fingerprint())
          << protocol << " replica " << i;
    }
    // Progress actually crossed the snapshot boundary.
    EXPECT_GT(max_applied, iface(cluster, 0).compaction_floor()) << protocol;
    EXPECT_GT(iface(cluster, 0).compaction_floor(), 0) << protocol;
  }
}

// ---------------------------------------------------------------------------
// Edge: the snapshot-bearing traffic races a partition (the install arrives
// while the laggard is still cut off from part of the cluster).
// ---------------------------------------------------------------------------

TEST(CompactionEdgeTest, InstallDuringPartition) {
  for (const std::string& protocol : consensus::protocol_names()) {
    harness::ClusterConfig cfg;
    cfg.num_replicas = 5;
    cfg.seed = 21;
    harness::Cluster cluster(cfg);
    consensus::TimingOptions timing;
    timing.election_timeout_min = msec(300);
    timing.election_timeout_max = msec(600);
    timing.heartbeat_interval = msec(60);
    timing.compaction_log_cap = 96;
    cluster.build_replicas(protocol, timing);
    if (!cluster.server(0).leaderless()) {
      cluster.establish_leader(0, sec(10));
    } else {
      cluster.run_for(msec(500));
    }

    // The laggard is first isolated completely, then — while snapshots may
    // already be in flight towards it — stays partitioned from two more
    // replicas for another stretch: the install must work with only a
    // partial view of the cluster.
    const int victim = 2;
    const NodeId vid = cluster.server(victim).id();
    const Time t0 = cluster.sim().now() + sec(1);
    auto& faults = cluster.net().faults();
    faults.isolate(vid, t0, t0 + sec(6));
    faults.partition_pair(vid, cluster.server(3).id(), t0, t0 + sec(10));
    faults.partition_pair(vid, cluster.server(4).id(), t0, t0 + sec(10));

    kv::WorkloadConfig wl;
    wl.read_fraction = 0.5;
    cluster.add_clients(4, wl, cluster.sim().now());
    cluster.run_until(t0 + sec(12));
    cluster.stop_clients();
    cluster.run_for(sec(8));

    consensus::LogIndex max_applied = 0;
    for (int i = 0; i < cluster.num_replicas(); ++i) {
      max_applied = std::max(max_applied, iface(cluster, i).applied_index());
    }
    for (int i = 0; i < cluster.num_replicas(); ++i) {
      EXPECT_EQ(iface(cluster, i).applied_index(), max_applied)
          << protocol << " replica " << i << " stalled";
      EXPECT_EQ(cluster.server(i).store().fingerprint(),
                cluster.server(0).store().fingerprint())
          << protocol << " replica " << i << " diverged";
    }
  }
}

// ---------------------------------------------------------------------------
// Chaos: the full seeded fault schedules with aggressive compaction, all
// protocols — every invariant (agreement, exactly-once apply across
// installs, linearizability, snapshot soundness, bounded memory,
// convergence) stays green.
// ---------------------------------------------------------------------------

TEST(CompactionChaosTest, AggressiveCompactionSurvivesASeedBatch) {
  uint64_t installs = 0;
  for (const std::string& protocol : consensus::protocol_names()) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      chaos::RunOptions opt;
      opt.protocol = protocol;
      opt.seed = seed;
      opt.compaction_log_cap = 48;
      const chaos::RunResult r = chaos::run_one(opt);
      EXPECT_TRUE(r.ok) << protocol << " seed " << seed << ": "
                        << (r.violations.empty() ? "?" : r.violations[0]);
      EXPECT_GT(r.log_length, 0);
      installs += r.snapshot_installs;
    }
  }
  // The batch actually exercised snapshot catch-up somewhere.
  EXPECT_GT(installs, 0u);
}

}  // namespace
}  // namespace praft
