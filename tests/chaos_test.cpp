#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chaos/invariants.h"
#include "chaos/runner.h"
#include "chaos/schedule_gen.h"
#include "consensus/group.h"
#include "consensus/registry.h"

namespace praft::chaos {
namespace {

TEST(ScheduleGenTest, DeterministicPerSeed) {
  const Schedule a = generate_schedule(42);
  const Schedule b = generate_schedule(42);
  EXPECT_EQ(a.describe(), b.describe());
  // Different seeds diverge (with overwhelming probability for this pair).
  const Schedule c = generate_schedule(43);
  EXPECT_NE(a.describe(), c.describe());
}

TEST(ScheduleGenTest, EventsRespectLimits) {
  ScheduleLimits lim;
  lim.faults_from = sec(2);
  lim.faults_until = sec(12);
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    const Schedule s = generate_schedule(seed, lim);
    EXPECT_GE(static_cast<int>(s.events.size()), lim.min_events);
    EXPECT_LE(static_cast<int>(s.events.size()), lim.max_events);
    for (const FaultEvent& e : s.events) {
      EXPECT_GE(e.from, lim.faults_from);
      EXPECT_LE(e.to, lim.faults_until);
      EXPECT_LT(e.from, e.to);
    }
    EXPECT_LE(s.drop_rate, lim.max_drop_rate);
    EXPECT_LE(s.duplicate_rate, lim.max_duplicate_rate);
    EXPECT_LE(s.reorder_rate, lim.max_reorder_rate);
  }
}

TEST(ChaosRunnerTest, AllProtocolsSurviveASeedBatch) {
  for (const std::string& protocol : consensus::protocol_names()) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      RunOptions opt;
      opt.protocol = protocol;
      opt.seed = seed;
      const RunResult r = run_one(opt);
      EXPECT_TRUE(r.ok) << protocol << " seed " << seed << ": "
                        << (r.violations.empty() ? "?" : r.violations[0]);
      EXPECT_GT(r.log_length, 0) << protocol << " seed " << seed
                                 << " made no progress";
      EXPECT_GT(r.client_ops, 0u);
    }
  }
}

TEST(ChaosRunnerTest, DeterministicReplay) {
  RunOptions opt;
  opt.protocol = "raft";
  opt.seed = 17;
  const RunResult a = run_one(opt);
  const RunResult b = run_one(opt);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.log_length, b.log_length);
  EXPECT_EQ(a.client_ops, b.client_ops);
  EXPECT_EQ(a.schedule, b.schedule);
}

TEST(ChaosRunnerTest, InjectedQuorumBugIsCaughtWithin50Seeds) {
  // The acceptance bar: a deliberate "commit on n/2 acks" bug must be
  // caught — with a reported seed and trace — within 50 seeds, for every
  // protocol in the registry.
  for (const std::string& protocol : consensus::protocol_names()) {
    bool caught = false;
    for (uint64_t seed = 1; seed <= 50 && !caught; ++seed) {
      RunOptions opt;
      opt.protocol = protocol;
      opt.seed = seed;
      opt.inject_quorum_bug = true;
      const RunResult r = run_one(opt);
      if (!r.ok) {
        caught = true;
        EXPECT_FALSE(r.violations.empty());
        EXPECT_FALSE(r.trace.empty());
        EXPECT_NE(r.repro.find("--inject-quorum-bug"), std::string::npos);
      }
    }
    EXPECT_TRUE(caught) << protocol
                        << ": quorum bug survived 50 fuzzing seeds";
  }
}

TEST(ChaosRunnerTest, ACheckInsideARunFailsThatRunWithItsRepro) {
  // A CheckFailure thrown while the cluster is built or run is the run's
  // failure, not the batch's: a group larger than Group::kMaxMembers trips
  // a CHECK when its replicas are built.
  RunOptions opt;
  opt.protocol = "raft";
  opt.seed = 3;
  opt.num_replicas = consensus::Group::kMaxMembers + 1;
  const RunResult r = run_one(opt);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_NE(r.violations[0].find("PRAFT_CHECK failed"), std::string::npos)
      << r.violations[0];
  EXPECT_EQ(r.seed, 3u);
  EXPECT_EQ(r.repro, "chaos_runner --protocol=raft --seed=3 --replicas=" +
                         std::to_string(opt.num_replicas));
  EXPECT_FALSE(r.schedule.empty());
  // The next run of the batch is unaffected.
  opt.num_replicas = 5;
  EXPECT_TRUE(run_one(opt).ok);
}

TEST(InvariantCheckerTest, FlagsDivergentCommandAtSameIndex) {
  InvariantChecker chk;
  kv::Command put;
  put.op = kv::Op::kPut;
  put.key = 1;
  put.value = 10;
  chk.on_apply(/*replica=*/0, 1, put);
  chk.on_apply(/*replica=*/1, 1, kv::noop_command());
  EXPECT_FALSE(chk.ok());
  ASSERT_FALSE(chk.violations().empty());
  EXPECT_NE(chk.violations()[0].find("agreement"), std::string::npos);
}

TEST(InvariantCheckerTest, FlagsNonContiguousApply) {
  InvariantChecker chk;
  chk.on_apply(0, 1, kv::noop_command());
  chk.on_apply(0, 3, kv::noop_command());  // hole: 2 skipped
  EXPECT_FALSE(chk.ok());
}

TEST(InvariantCheckerTest, FlagsCommitWatermarkRegression) {
  InvariantChecker chk;
  chk.on_watermark(0, /*commit=*/5, /*applied=*/5);
  chk.on_watermark(0, /*commit=*/3, /*applied=*/3);
  EXPECT_FALSE(chk.ok());
}

TEST(InvariantCheckerTest, CleanStreamPasses) {
  InvariantChecker chk;
  for (int r = 0; r < 3; ++r) {
    for (consensus::LogIndex i = 1; i <= 4; ++i) {
      kv::Command put;
      put.op = kv::Op::kPut;
      put.key = static_cast<uint64_t>(i);
      put.value = static_cast<uint64_t>(i) * 10;
      chk.on_apply(r, i, put);
      chk.on_watermark(r, i, i);
    }
  }
  EXPECT_TRUE(chk.ok());
  EXPECT_EQ(chk.max_applied(), 4);
}

}  // namespace
}  // namespace praft::chaos
