#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/mutator.h"
#include "chaos/runner.h"
#include "chaos/schedule_gen.h"
#include "common/rng.h"

namespace praft::chaos {
namespace {

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

void expect_events_in_bounds(const Schedule& s, const ScheduleLimits& lim,
                             const std::string& context) {
  for (const FaultEvent& e : s.events) {
    EXPECT_GE(e.from, lim.faults_from) << context << ": " << e.describe();
    EXPECT_LT(e.from, e.to) << context << ": " << e.describe();
    EXPECT_LE(e.to, lim.faults_until) << context << ": " << e.describe();
  }
}

// --- schedule generator property tests --------------------------------------

TEST(ScheduleGenPropertyTest, WindowBoundsHoldAcrossRandomizedLimits) {
  Rng meta(0xfeedface);
  for (int iter = 0; iter < 300; ++iter) {
    ScheduleLimits lim;
    lim.num_replicas = 2 + static_cast<int>(meta.below(5));
    lim.faults_from = msec(static_cast<int64_t>(meta.below(3000)));
    lim.faults_until =
        lim.faults_from + msec(1 + static_cast<int64_t>(meta.below(12000)));
    lim.min_events = 1 + static_cast<int>(meta.below(3));
    lim.max_events = lim.min_events + static_cast<int>(meta.below(5));
    lim.min_window = msec(10 + static_cast<int64_t>(meta.below(500)));
    lim.max_window =
        lim.min_window + msec(static_cast<int64_t>(meta.below(4000)));
    lim.add_minority_window = meta.chance(0.5);
    lim.crash_restart = meta.chance(0.5);
    lim.forced_crash_restarts = static_cast<int>(meta.below(4));
    const uint64_t seed = meta.next();

    const Schedule s = generate_schedule(seed, lim);
    expect_events_in_bounds(s, lim, "iter " + std::to_string(iter));
    // Pure function of (seed, limits).
    EXPECT_EQ(s.describe(), generate_schedule(seed, lim).describe());
  }
}

TEST(ScheduleGenPropertyTest, ForcedCrashPairsRespectTinyFaultWindows) {
  // Regression: the forced leader-crash event was pushed unguarded, so the
  // k-th pair (starting 3s deeper into the fault phase) emitted an inverted
  // window (`to < from`) whenever `faults_until` was small — leaking faults
  // into the documented fault-free re-convergence tail.
  ScheduleLimits lim;
  lim.faults_from = sec(2);
  lim.faults_until = sec(3);
  lim.crash_restart = true;
  lim.forced_crash_restarts = 3;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const Schedule s = generate_schedule(seed, lim);
    expect_events_in_bounds(s, lim, "seed " + std::to_string(seed));
  }
}

// --- serialization ----------------------------------------------------------

TEST(ScheduleTextTest, SerializeParseSerializeIsIdentity) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    ScheduleLimits lim;
    lim.crash_restart = (seed % 2) == 0;
    lim.forced_crash_restarts = static_cast<int>(seed % 3);
    const Schedule s = generate_schedule(seed, lim);
    const std::string text = serialize_schedule(s);

    const std::vector<std::string> lines = split_lines(text);
    size_t pos = 0;
    Schedule parsed;
    std::string header;
    std::string error;
    ASSERT_TRUE(parse_schedule(lines, &pos, &parsed, &header, &error))
        << error;
    EXPECT_EQ(pos, lines.size());
    EXPECT_TRUE(header.empty());
    EXPECT_EQ(serialize_schedule(parsed), text);
    EXPECT_EQ(parsed.describe(), s.describe());
  }
}

TEST(ScheduleTextTest, HeaderExtrasRoundTrip) {
  const Schedule s = generate_schedule(7);
  const std::string text = serialize_schedule(s, "mencius --restarts");
  size_t pos = 0;
  Schedule parsed;
  std::string header;
  std::string error;
  ASSERT_TRUE(parse_schedule(split_lines(text), &pos, &parsed, &header,
                             &error))
      << error;
  EXPECT_EQ(header, "mencius --restarts");
  EXPECT_EQ(serialize_schedule(parsed, header), text);
}

TEST(ScheduleTextTest, CommentsAndBlankLinesAreIgnored) {
  const Schedule s = generate_schedule(9);
  std::vector<std::string> lines = split_lines(serialize_schedule(s));
  lines.insert(lines.begin() + 1, "  # a comment");
  lines.insert(lines.begin() + 3, "");
  lines[lines.size() - 1] += "  # cov=42";
  size_t pos = 0;
  Schedule parsed;
  std::string header;
  std::string error;
  ASSERT_TRUE(parse_schedule(lines, &pos, &parsed, &header, &error)) << error;
  EXPECT_EQ(parsed.describe(), s.describe());
}

TEST(ScheduleTextTest, MalformedBlocksAreRejected) {
  Schedule out;
  std::string header;
  std::string error;
  const auto rejects = [&](std::vector<std::string> lines) {
    size_t pos = 0;
    const bool ok = parse_schedule(lines, &pos, &out, &header, &error);
    EXPECT_FALSE(ok);
    EXPECT_FALSE(error.empty());
  };
  rejects({"schedule {", "bogus_key 1",
           "event crash a=0 from=1000 to=2000", "}"});
  rejects({"schedule {", "seed notanumber",
           "event crash a=0 from=1000 to=2000", "}"});
  rejects({"schedule {", "event not_a_kind from=1000 to=2000", "}"});
  rejects({"schedule {", "event crash a=0 from=2000 to=1000", "}"});
  rejects({"schedule {", "event crash a=0 from=-5 to=1000", "}"});
  rejects({"schedule {", "event crash a=-2 from=1000 to=2000", "}"});
  // A near-INT64_MAX window would overflow the runner's deadline math into
  // an instant bogus green; times are capped at parse.
  rejects({"schedule {",
           "event drop_burst p=0.3 from=3000000 to=9223372036854775000",
           "}"});
  rejects({"schedule {", "seed 1"});   // never closed
  rejects({"schedule {", "}"});        // no events
  rejects({"notschedule {", "}"});
}

// --- run files ---------------------------------------------------------------

/// Compares every RunOptions field the run-file format carries.
void expect_same_run(const RunOptions& got, const RunOptions& want) {
  EXPECT_EQ(got.protocol, want.protocol);
  EXPECT_EQ(got.seed, want.seed);
  EXPECT_EQ(got.num_replicas, want.num_replicas);
  EXPECT_EQ(got.groups, want.groups);
  EXPECT_EQ(got.inject_quorum_bug, want.inject_quorum_bug);
  EXPECT_EQ(got.compaction_log_cap, want.compaction_log_cap);
  EXPECT_EQ(got.crash_restarts, want.crash_restarts);
  EXPECT_EQ(got.inject_persistence_bug, want.inject_persistence_bug);
  EXPECT_EQ(got.wan, want.wan);
  EXPECT_EQ(got.fsync, want.fsync);
  EXPECT_EQ(got.sync_batch, want.sync_batch);
  ASSERT_EQ(got.schedule.has_value(), want.schedule.has_value());
  if (got.schedule.has_value()) {
    EXPECT_EQ(serialize_schedule(*got.schedule),
              serialize_schedule(*want.schedule));
  }
}

/// Parses `text` as the run file "runs.txt" under --protocol=raft,mencius.
bool parse_text(const std::string& text, std::vector<RunOptions>* runs,
                std::string* error, const RunOptions& base = {}) {
  std::istringstream in(text);
  return parse_runs(in, "runs.txt", base, {"raft", "mencius"}, runs, error);
}

TEST(RunFileTest, BareSeedExpandsOverTheProtocolSelection) {
  RunOptions base;
  base.crash_restarts = true;  // a batch flag: every entry inherits it
  std::vector<RunOptions> runs;
  std::string error;
  ASSERT_TRUE(parse_text("# saved runs\n\n5 --wan\n", &runs, &error, base))
      << error;
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].protocol, "raft");
  EXPECT_EQ(runs[1].protocol, "mencius");
  for (const RunOptions& run : runs) {
    EXPECT_EQ(run.seed, 5u);
    EXPECT_TRUE(run.wan);
    EXPECT_TRUE(run.crash_restarts);
    EXPECT_FALSE(run.schedule.has_value());
  }
}

TEST(RunFileTest, ProtocolSeedLinesCarryEveryFlag) {
  const std::string line =
      "multipaxos 42 --compaction-cap=64 --restarts --inject-quorum-bug "
      "--inject-persistence-bug --wan --groups=3 --replicas=7 --fsync=0 "
      "--sync-batch=500";
  std::vector<RunOptions> runs;
  std::string error;
  ASSERT_TRUE(parse_text(line + "  # repro: ...\nraftstar 9\n", &runs, &error))
      << error;
  ASSERT_EQ(runs.size(), 2u);
  RunOptions want;
  want.protocol = "multipaxos";
  want.seed = 42;
  want.compaction_log_cap = 64;
  want.crash_restarts = true;
  want.inject_quorum_bug = true;
  want.inject_persistence_bug = true;
  want.wan = true;
  want.groups = 3;
  want.num_replicas = 7;
  want.fsync = 0;
  want.sync_batch = 500;
  expect_same_run(runs[0], want);
  EXPECT_EQ(serialize_run(runs[0]), line + "\n");
  RunOptions plain;
  plain.protocol = "raftstar";
  plain.seed = 9;
  expect_same_run(runs[1], plain);
  EXPECT_EQ(serialize_run(runs[1], "cov=3"), "raftstar 9  # cov=3\n");
}

TEST(RunFileTest, ScheduleBlockHeadersCarryFlags) {
  RunOptions run;
  run.protocol = "mencius";
  run.crash_restarts = true;
  run.groups = 2;
  run.num_replicas = 3;
  ScheduleLimits lim;
  lim.num_replicas = 3;
  run.schedule = generate_schedule(11, lim);
  run.seed = run.schedule->seed;
  const std::string text = serialize_run(run, "cov=7");
  EXPECT_EQ(text.rfind("# cov=7\nschedule mencius --restarts --groups=2 "
                       "--replicas=3 {\n",
                       0),
            0u)
      << text;
  std::vector<RunOptions> runs;
  std::string error;
  ASSERT_TRUE(parse_text(text, &runs, &error)) << error;
  ASSERT_EQ(runs.size(), 1u);
  expect_same_run(runs[0], run);
  EXPECT_EQ(serialize_run(runs[0], "cov=7"), text);
}

TEST(RunFileTest, ErrorsNameFileAndLine) {
  const auto error_of = [](const std::string& text) {
    std::vector<RunOptions> runs;
    std::string error;
    EXPECT_FALSE(parse_text(text, &runs, &error)) << text;
    return error;
  };
  EXPECT_EQ(error_of("raft 1\nraft 2 --bogus\n"),
            "runs.txt:2: unknown per-run flag '--bogus'");
  EXPECT_EQ(error_of("raft 1 --compaction-cap=abc\n"),
            "runs.txt:1: bad --compaction-cap value 'abc'");
  EXPECT_EQ(error_of("raft 1 --replicas=3x\n"),
            "runs.txt:1: bad --replicas value '3x'");
  EXPECT_EQ(error_of("raft 1 --wan=0\n"), "runs.txt:1: bad --wan value '0'");
  EXPECT_EQ(error_of("# header\n\nraft 1 --groups=0\n"),
            "runs.txt:3: bad --groups value '0'");
  EXPECT_EQ(error_of("raft seven\n"),
            "runs.txt:1: protocol 'raft' without a valid seed");
  EXPECT_EQ(error_of("nosuch 1\n"),
            "runs.txt:1: 'nosuch' is neither a registered protocol nor a "
            "seed");

  Schedule s = generate_schedule(3);
  s.events = {FaultEvent{FaultEvent::Kind::kCrash, 3, -1, 0.0, sec(3),
                         sec(4)}};
  EXPECT_EQ(error_of("raft 1\n" + serialize_schedule(s, "nosuch")),
            "runs.txt:2: schedule block needs a registered protocol after "
            "'schedule' (got 'nosuch')");
  // The event's replica 3 exists in the default 5-replica cluster only.
  std::vector<RunOptions> runs;
  std::string error;
  EXPECT_TRUE(parse_text(serialize_schedule(s, "raft"), &runs, &error))
      << error;
  EXPECT_EQ(error_of(serialize_schedule(s, "raft --replicas=3")),
            "runs.txt:1: event targets replica 3 but the cluster has 3 "
            "replicas (replay with a bigger --replicas)");
}

TEST(RunFileTest, ThreeReplicaRunReplaysFromItsReproAndItsSavedLine) {
  RunOptions run;
  run.protocol = "raft";
  run.seed = 7;
  run.num_replicas = 3;
  run.inject_quorum_bug = true;
  run.wan = true;
  const RunResult r = run_one(run);

  // The repro is a command line: --protocol and --seed, then per-run flags.
  std::istringstream words(r.repro);
  std::string word;
  ASSERT_TRUE(words >> word);
  EXPECT_EQ(word, "chaos_runner");
  RunOptions from_repro;
  while (words >> word) {
    std::string error;
    if (word.rfind("--protocol=", 0) == 0) {
      from_repro.protocol = word.substr(std::strlen("--protocol="));
    } else if (word.rfind("--seed=", 0) == 0) {
      from_repro.seed = std::stoull(word.substr(std::strlen("--seed=")));
    } else {
      EXPECT_TRUE(parse_run_flag(word, &from_repro, &error)) << error;
    }
  }
  expect_same_run(from_repro, run);

  // What --failures-out saves for it.
  std::vector<RunOptions> runs;
  std::string error;
  ASSERT_TRUE(parse_text(serialize_run(run, "repro: " + r.repro), &runs,
                         &error))
      << error;
  ASSERT_EQ(runs.size(), 1u);
  expect_same_run(runs[0], run);
}

// --- mutation operators -----------------------------------------------------

TEST(MutatorTest, MutationsAreDeterministicAndStayInBounds) {
  ScheduleLimits lim;
  lim.crash_restart = true;
  const Schedule base = generate_schedule(7, lim);
  Rng a(99);
  Rng b(99);
  Schedule m1 = base;
  Schedule m2 = base;
  for (int i = 0; i < 300; ++i) {
    m1 = mutate_schedule(m1, a, lim);
    m2 = mutate_schedule(m2, b, lim);
    expect_events_in_bounds(m1, lim, "mutation " + std::to_string(i));
    ASSERT_GE(m1.events.size(), 1u);
    ASSERT_LE(m1.events.size(), 12u);
    EXPECT_GE(m1.drop_rate, 0.0);
    EXPECT_LE(m1.drop_rate, lim.max_drop_rate);
    EXPECT_LE(m1.duplicate_rate, lim.max_duplicate_rate);
    EXPECT_LE(m1.reorder_rate, lim.max_reorder_rate);
    EXPECT_GE(m1.workload.read_fraction, 0.0);
    EXPECT_LE(m1.workload.read_fraction, 1.0);
  }
  // Same RNG stream, same inputs => bit-identical mutants.
  EXPECT_EQ(serialize_schedule(m1), serialize_schedule(m2));
  // And the walk actually went somewhere.
  EXPECT_NE(serialize_schedule(m1), serialize_schedule(base));
}

TEST(MutatorTest, EveryOperatorPreservesTheWindowPostcondition) {
  ScheduleLimits lim;
  lim.crash_restart = true;
  const MutationOp ops[] = {
      MutationOp::kShiftWindow,     MutationOp::kStretchWindow,
      MutationOp::kSplitWindow,     MutationOp::kSwapKind,
      MutationOp::kRetargetReplica, MutationOp::kPerturbRates,
      MutationOp::kPerturbWorkload, MutationOp::kAddEvent,
      MutationOp::kDropEvent,       MutationOp::kReseed,
  };
  Rng rng(1234);
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Schedule s = generate_schedule(seed, lim);
    for (const MutationOp op : ops) {
      for (int rep = 0; rep < 10; ++rep) {
        s = apply_mutation(s, op, rng, lim);
        expect_events_in_bounds(s, lim, "op " + std::to_string(
                                            static_cast<int>(op)));
        ASSERT_GE(s.events.size(), 1u);
      }
    }
  }
}

TEST(MutatorTest, SpliceMixesParentsWithinBounds) {
  ScheduleLimits lim;
  lim.crash_restart = true;
  const Schedule a = generate_schedule(1, lim);
  const Schedule b = generate_schedule(2, lim);
  Rng r1(5);
  Rng r2(5);
  for (int i = 0; i < 100; ++i) {
    const Schedule c1 = splice_schedules(a, b, r1, lim);
    const Schedule c2 = splice_schedules(a, b, r2, lim);
    EXPECT_EQ(serialize_schedule(c1), serialize_schedule(c2));
    expect_events_in_bounds(c1, lim, "splice " + std::to_string(i));
    ASSERT_GE(c1.events.size(), 1u);
    ASSERT_LE(c1.events.size(), 12u);
  }
}

TEST(MutatorTest, SpliceWrapsAPartnersReplicasIntoTheChild) {
  // A seed file may mix replica counts, so an --evolve offspring's splice
  // partner can name replicas the child's cluster lacks.
  ScheduleLimits narrow;
  narrow.num_replicas = 3;
  ScheduleLimits wide;
  wide.num_replicas = 7;
  const Schedule a = generate_schedule(1, narrow);
  Rng rng(5);
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const Schedule child =
        splice_schedules(a, generate_schedule(seed, wide), rng, narrow);
    for (const FaultEvent& e : child.events) {
      EXPECT_LT(std::max(e.a, e.b), narrow.num_replicas) << e.describe();
    }
  }
}

// --- explicit-schedule runs -------------------------------------------------

TEST(ScheduleRunTest, ExplicitScheduleMatchesSeedExpansion) {
  RunOptions seed_opt;
  seed_opt.protocol = "raft";
  seed_opt.seed = 5;
  const RunResult by_seed = run_one(seed_opt);

  RunOptions sched_opt = seed_opt;
  sched_opt.schedule = schedule_of(seed_opt);
  const RunResult by_schedule = run_one(sched_opt);

  EXPECT_EQ(by_seed.ok, by_schedule.ok);
  EXPECT_EQ(by_seed.schedule, by_schedule.schedule);
  EXPECT_EQ(by_seed.log_length, by_schedule.log_length);
  EXPECT_EQ(by_seed.client_ops, by_schedule.client_ops);
  EXPECT_EQ(by_seed.leader_changes, by_schedule.leader_changes);
  EXPECT_EQ(coverage_score(by_seed), coverage_score(by_schedule));
}

TEST(ScheduleRunTest, TextRoundTrippedScheduleReplaysIdentically) {
  RunOptions opt;
  opt.protocol = "multipaxos";
  opt.seed = 11;
  opt.crash_restarts = true;
  const Schedule original = schedule_of(opt);

  size_t pos = 0;
  Schedule parsed;
  std::string header;
  std::string error;
  ASSERT_TRUE(parse_schedule(split_lines(serialize_schedule(original)), &pos,
                             &parsed, &header, &error))
      << error;

  RunOptions a = opt;
  a.schedule = original;
  RunOptions b = opt;
  b.schedule = parsed;
  const RunResult ra = run_one(a);
  const RunResult rb = run_one(b);
  EXPECT_EQ(ra.ok, rb.ok);
  EXPECT_EQ(ra.log_length, rb.log_length);
  EXPECT_EQ(ra.client_ops, rb.client_ops);
  EXPECT_EQ(coverage_score(ra), coverage_score(rb));
}

// --- evolution --------------------------------------------------------------

TEST(EvolveTest, DeterministicAndBeatsRandomBaselineOnEqualBudget) {
  EvolveOptions eopt;
  eopt.generations = 4;
  eopt.population = 8;
  eopt.elite = 2;
  eopt.rng_seed = 5;
  eopt.protocols = {"raft"};
  eopt.base.protocol = "raft";
  eopt.base.crash_restarts = true;

  const EvolveStats evolved = evolve(eopt, {});
  EXPECT_EQ(evolved.runs, 8u + 4u * 6u);
  EXPECT_TRUE(evolved.failures.empty())
      << evolved.failures.front().violations.front();
  ASSERT_FALSE(evolved.population.empty());

  // Deterministic: the whole loop is a pure function of (options, seeds).
  const EvolveStats again = evolve(eopt, {});
  EXPECT_EQ(evolved.runs, again.runs);
  EXPECT_EQ(evolved.mean_score, again.mean_score);
  ASSERT_EQ(evolved.population.size(), again.population.size());
  for (size_t i = 0; i < evolved.population.size(); ++i) {
    EXPECT_EQ(serialize_run(evolved.population[i].run),
              serialize_run(again.population[i].run));
  }

  // Equal-budget baseline: the same number of pure random-seed runs, keeping
  // its top-`population` scores (exactly what --corpus-out would persist).
  std::vector<uint64_t> baseline;
  for (uint64_t seed = 1; seed <= evolved.runs; ++seed) {
    RunOptions opt = eopt.base;
    opt.seed = seed;
    const RunResult r = run_one(opt);
    if (r.ok) baseline.push_back(coverage_score(r));
  }
  std::sort(baseline.begin(), baseline.end(), std::greater<>());
  const size_t top = std::min<size_t>(baseline.size(),
                                      static_cast<size_t>(eopt.population));
  ASSERT_GT(top, 0u);
  const double baseline_mean =
      static_cast<double>(
          std::accumulate(baseline.begin(),
                          baseline.begin() + static_cast<ptrdiff_t>(top),
                          uint64_t{0})) /
      static_cast<double>(top);

  EXPECT_GE(evolved.mean_score, baseline_mean)
      << "evolved elite population should cover at least as much as the "
         "best-of-random baseline on the same run budget";
}

TEST(EvolveTest, SeededCorpusEntersTheInitialPopulation) {
  EvolveOptions eopt;
  eopt.generations = 1;
  eopt.population = 4;
  eopt.elite = 1;
  eopt.rng_seed = 3;
  eopt.protocols = {"raft"};
  eopt.base.protocol = "raft";

  EvolveCandidate seed_cand;
  seed_cand.run = eopt.base;
  seed_cand.run.seed = 42;

  const EvolveStats stats = evolve(eopt, {seed_cand});
  EXPECT_EQ(stats.runs, 4u + 3u);
  // The seeded schedule ran and is eligible for the archive; with only a
  // handful of candidates it should appear unless strictly outscored by
  // every other run.
  ASSERT_FALSE(stats.population.empty());
}

}  // namespace
}  // namespace praft::chaos
