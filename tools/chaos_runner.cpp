// Seeded fault-schedule fuzzer for every registered consensus protocol.
//
//   chaos_runner --protocol=raft --seed=42          # replay one run
//   chaos_runner --protocol=all --seeds=200         # fuzz the 4x matrix
//   chaos_runner --protocol=raft --seeds=50 --inject-quorum-bug
//   chaos_runner --protocol=all --seeds=50 --compaction-cap=64
//   chaos_runner --protocol=all --seeds=200 --restarts   # crash-restart faults
//   chaos_runner --protocol=raft --seeds=50 --inject-persistence-bug
//   chaos_runner --protocol=all --seeds=50 --groups=3    # sharded: 3 groups
//   chaos_runner --protocol=all --seeds=50 --verify-determinism
//       # run every seed twice; coverage counters + trace fingerprints must
//       # match exactly (runtime backstop for praft_lint's D1/D2 rules)
//   chaos_runner --seed-file=chaos_failures.txt     # replay saved runs
//   chaos_runner --seeds=200 --restarts --corpus-out=tools/chaos_corpus.txt
//   chaos_runner --protocol=all --evolve=4 --restarts
//       --seed-file=tools/chaos_corpus.txt --corpus-out=tools/chaos_corpus.txt
//
// Each failure prints the seed, the schedule, the violated invariants, the
// recent event trace, and the exact repro command. Exit status is the number
// of failing runs, capped at 99 (2 = bad usage, including malformed numeric
// flag values).
//
// --seed-file replays an explicit list instead of a contiguous range. Two
// entry forms coexist: one run per line, either "<seed>" (run under
// --protocol) or "<protocol> <seed>", optionally followed by per-run flags
// (--compaction-cap=N, --inject-quorum-bug, ...) — and multi-line
// "schedule <protocol> [flags] { ... }" blocks holding an explicit evolved
// schedule (see src/chaos/mutator.h for the block grammar). '#' starts a
// comment. --failures-out and --corpus-out both write this format, so any
// saved run replays under the exact configuration it was found with.
//
// --evolve=N runs the coverage-guided evolution loop instead of a flat
// batch: the population seeds from --seed-file (if given) plus fresh random
// schedules, every run is scored with the harness coverage counters (leader
// changes, revocations, snapshot installs, restarts), and the top scorers
// are kept/mutated for N generations. All evolved runs execute under the
// CLI flags (--restarts, --compaction-cap, ...); --corpus-out persists the
// elite population as schedule blocks.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/mutator.h"
#include "chaos/runner.h"
#include "consensus/registry.h"

using namespace praft;

namespace {

struct CliOptions {
  std::string protocol = "all";
  uint64_t seed = 1;
  int seeds = 1;
  int replicas = 5;
  bool inject_quorum_bug = false;
  bool restarts = false;
  bool inject_persistence_bug = false;
  bool wan = false;
  int groups = 1;
  size_t compaction_cap = 0;
  bool verbose = false;
  bool verify_determinism = false;
  bool stop_on_failure = false;
  std::string failures_out;
  std::string seed_file;
  std::string corpus_out;
  size_t corpus_size = 16;
  int evolve = 0;  // generations; 0 = flat batch mode
  int population = 16;
  int elite = 4;
};

/// One run resolved from the CLI flags or a seed file: a (protocol, seed)
/// pair, or an explicit schedule block. Per-entry flag overrides replay a
/// saved failure under the exact configuration it was found with.
struct PlannedRun {
  std::string protocol;
  uint64_t seed = 0;
  std::optional<chaos::Schedule> schedule;
  size_t compaction_cap = 0;
  bool inject_quorum_bug = false;
  bool restarts = false;
  bool inject_persistence_bug = false;
  bool wan = false;
  int groups = 1;
};

/// A (protocol, seed) run under the batch-wide CLI flags — the ONE place the
/// seed-range and seed-file paths derive a run's configuration, so new flags
/// cannot silently drop out of one of them.
PlannedRun planned_seed_run(const CliOptions& cli, const std::string& protocol,
                            uint64_t seed) {
  PlannedRun run;
  run.protocol = protocol;
  run.seed = seed;
  run.compaction_cap = cli.compaction_cap;
  run.inject_quorum_bug = cli.inject_quorum_bug;
  run.restarts = cli.restarts;
  run.inject_persistence_bug = cli.inject_persistence_bug;
  run.wan = cli.wan;
  run.groups = cli.groups;
  return run;
}

/// Serializes a run's flag overrides in the --seed-file per-line format.
/// The ONE implementation shared by the --failures-out and --corpus-out
/// writers: both files replay through the same parser, so the run must
/// come back under exactly the configuration it ran with.
std::string flags_of(const PlannedRun& run) {
  std::string flags;
  if (run.compaction_cap > 0) {
    char fb[48];
    std::snprintf(fb, sizeof(fb), " --compaction-cap=%zu", run.compaction_cap);
    flags += fb;
  }
  if (run.restarts) flags += " --restarts";
  if (run.inject_quorum_bug) flags += " --inject-quorum-bug";
  if (run.inject_persistence_bug) flags += " --inject-persistence-bug";
  if (run.wan) flags += " --wan";
  if (run.groups > 1) {
    char gb[32];
    std::snprintf(gb, sizeof(gb), " --groups=%d", run.groups);
    flags += gb;
  }
  return flags;
}

/// Identity of a planned run for corpus dedup: replaying a seed file that
/// repeats a line must not burn two elite slots on the same run.
std::string dedup_key(const PlannedRun& run) {
  std::string key = run.protocol + flags_of(run) + '\n';
  if (run.schedule.has_value()) {
    key += chaos::serialize_schedule(*run.schedule);
  } else {
    char sb[32];
    std::snprintf(sb, sizeof(sb), "seed=%llu",
                  static_cast<unsigned long long>(run.seed));
    key += sb;
  }
  return key;
}

bool parse_flag(const char* arg, const char* name, const char** value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '\0') {
    *value = nullptr;
    return true;
  }
  if (arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

// Numeric flag values parse with end-pointer checks: `--seeds=abc` must be
// a usage error (exit 2), not a silent zero-run batch that exits green.
bool parse_u64_value(const char* v, uint64_t* out) {
  if (v == nullptr || *v == '\0') return false;
  char* end = nullptr;
  *out = std::strtoull(v, &end, 10);
  return end != v && *end == '\0' && *v != '-';
}

bool parse_int_value(const char* v, int* out) {
  if (v == nullptr || *v == '\0') return false;
  char* end = nullptr;
  const long wide = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || wide < INT32_MIN || wide > INT32_MAX) {
    return false;
  }
  *out = static_cast<int>(wide);
  return true;
}

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--protocol=NAME|all] [--seed=N] [--seeds=K] [--replicas=N]\n"
      "          [--inject-quorum-bug] [--compaction-cap=N] [--restarts]\n"
      "          [--inject-persistence-bug] [--wan] [--groups=N] [--verbose]\n"
      "          [--verify-determinism] [--stop-on-failure]\n"
      "          [--failures-out=PATH] [--seed-file=PATH]\n"
      "          [--corpus-out=PATH] [--corpus-size=N]\n"
      "          [--evolve=GENERATIONS] [--population=N] [--elite=N]\n"
      "protocols: all",
      argv0);
  for (const auto& name : consensus::protocol_names()) {
    std::fprintf(stderr, ", %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

void print_failure(const chaos::RunResult& r) {
  std::printf("FAIL protocol=%s seed=%llu\n", r.protocol.c_str(),
              static_cast<unsigned long long>(r.seed));
  std::printf("  schedule: %s\n", r.schedule.c_str());
  for (const auto& v : r.violations) {
    std::printf("  invariant violated: %s\n", v.c_str());
  }
  std::printf("  trace (last %zu events):\n", r.trace.size());
  for (const auto& t : r.trace) std::printf("    %s\n", t.c_str());
  std::printf("  repro: %s\n", r.repro.c_str());
}

/// Every counter a run reports, plus its trace fingerprint: the --verbose
/// run line's tail, and exactly what --verify-determinism compares.
std::string counters_of(const chaos::RunResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "log=%lld client_ops=%llu snapshots=%llu restarts=%llu "
                "leader_changes=%llu revocations=%llu rollbacks=%llu "
                "fp=%016llx",
                static_cast<long long>(r.log_length),
                static_cast<unsigned long long>(r.client_ops),
                static_cast<unsigned long long>(r.snapshot_installs),
                static_cast<unsigned long long>(r.restarts),
                static_cast<unsigned long long>(r.leader_changes),
                static_cast<unsigned long long>(r.revocations),
                static_cast<unsigned long long>(r.pipeline_rollbacks),
                static_cast<unsigned long long>(r.trace_fingerprint));
  return buf;
}

/// Writes one replayable entry — a "<protocol> <seed> [flags]" line or a
/// schedule block — with `comment` on the line (or a line of its own ahead
/// of a block, since blocks span lines).
void write_entry(std::FILE* f, const PlannedRun& run,
                 const std::string& comment) {
  if (run.schedule.has_value()) {
    if (!comment.empty()) std::fprintf(f, "# %s\n", comment.c_str());
    std::string header = run.protocol + flags_of(run);
    std::fprintf(f, "%s",
                 chaos::serialize_schedule(*run.schedule, header).c_str());
  } else {
    std::fprintf(f, "%s %llu%s%s%s\n", run.protocol.c_str(),
                 static_cast<unsigned long long>(run.seed),
                 flags_of(run).c_str(), comment.empty() ? "" : "  # ",
                 comment.c_str());
  }
}

/// Parses --seed-file: bare seed / "<protocol> <seed>" lines with optional
/// per-run flags, plus "schedule <protocol> [flags] { ... }" blocks.
/// Returns false (after printing the offending line) on malformed input.
bool load_seed_file(const CliOptions& cli,
                    const std::vector<std::string>& protocols,
                    std::vector<PlannedRun>* planned) {
  std::ifstream in(cli.seed_file);
  if (!in) {
    std::fprintf(stderr, "cannot read seed file %s\n", cli.seed_file.c_str());
    return false;
  }
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);

  const auto apply_run_flag = [&cli](const std::string& flag,
                                     std::vector<PlannedRun>* runs,
                                     int lineno) {
    const char* v = nullptr;
    if (parse_flag(flag.c_str(), "--compaction-cap", &v) && v != nullptr) {
      uint64_t cap = 0;
      if (!parse_u64_value(v, &cap)) {
        std::fprintf(stderr, "%s:%d: bad --compaction-cap value '%s'\n",
                     cli.seed_file.c_str(), lineno, v);
        return false;
      }
      for (auto& r : *runs) r.compaction_cap = cap;
    } else if (parse_flag(flag.c_str(), "--inject-quorum-bug", &v)) {
      for (auto& r : *runs) r.inject_quorum_bug = true;
    } else if (parse_flag(flag.c_str(), "--restarts", &v)) {
      for (auto& r : *runs) r.restarts = true;
    } else if (parse_flag(flag.c_str(), "--inject-persistence-bug", &v)) {
      for (auto& r : *runs) r.inject_persistence_bug = true;
    } else if (parse_flag(flag.c_str(), "--wan", &v)) {
      for (auto& r : *runs) r.wan = true;
    } else if (parse_flag(flag.c_str(), "--groups", &v) && v != nullptr) {
      int groups = 0;
      if (!parse_int_value(v, &groups) || groups < 1) {
        std::fprintf(stderr, "%s:%d: bad --groups value '%s'\n",
                     cli.seed_file.c_str(), lineno, v);
        return false;
      }
      for (auto& r : *runs) r.groups = groups;
    } else {
      std::fprintf(stderr, "%s:%d: unknown per-run flag '%s'\n",
                   cli.seed_file.c_str(), lineno, flag.c_str());
      return false;
    }
    return true;
  };

  for (size_t pos = 0; pos < lines.size();) {
    const int lineno = static_cast<int>(pos) + 1;
    std::string stripped = lines[pos];
    if (const size_t hash = stripped.find('#'); hash != std::string::npos) {
      stripped.resize(hash);
    }
    std::istringstream ls(stripped);
    std::string first;
    if (!(ls >> first)) {  // blank / comment-only line
      ++pos;
      continue;
    }
    if (first == "schedule") {
      chaos::Schedule sched;
      std::string header;
      std::string error;
      if (!chaos::parse_schedule(lines, &pos, &sched, &header, &error)) {
        std::fprintf(stderr, "%s:%d: %s\n", cli.seed_file.c_str(), lineno,
                     error.c_str());
        return false;
      }
      std::istringstream hs(header);
      std::string protocol;
      if (!(hs >> protocol) ||
          !consensus::ProtocolRegistry::instance().contains(protocol)) {
        std::fprintf(stderr,
                     "%s:%d: schedule block needs a registered protocol "
                     "after 'schedule' (got '%s')\n",
                     cli.seed_file.c_str(), lineno, header.c_str());
        return false;
      }
      // The block format does not carry the replica count; an event naming
      // a replica the replaying cluster does not have must be a clean
      // usage error, not an out-of-bounds crash mid-batch.
      for (const chaos::FaultEvent& e : sched.events) {
        if (e.a >= cli.replicas || e.b >= cli.replicas) {
          std::fprintf(stderr,
                       "%s:%d: event targets replica %d but the cluster has "
                       "%d replicas (replay with a bigger --replicas)\n",
                       cli.seed_file.c_str(), lineno, std::max(e.a, e.b),
                       cli.replicas);
          return false;
        }
      }
      std::vector<PlannedRun> block_runs;
      PlannedRun run = planned_seed_run(cli, protocol, sched.seed);
      run.schedule = sched;
      block_runs.push_back(std::move(run));
      std::string flag;
      while (hs >> flag) {
        if (!apply_run_flag(flag, &block_runs, lineno)) return false;
      }
      planned->insert(planned->end(), block_runs.begin(), block_runs.end());
      continue;
    }
    std::vector<PlannedRun> line_runs;
    if (consensus::ProtocolRegistry::instance().contains(first)) {
      std::string seed_tok;
      uint64_t seed = 0;
      if (!(ls >> seed_tok) || !parse_u64_value(seed_tok.c_str(), &seed)) {
        std::fprintf(stderr, "%s:%d: protocol '%s' without a valid seed\n",
                     cli.seed_file.c_str(), lineno, first.c_str());
        return false;
      }
      line_runs.push_back(planned_seed_run(cli, first, seed));
    } else {
      uint64_t seed = 0;
      if (!parse_u64_value(first.c_str(), &seed)) {
        std::fprintf(stderr,
                     "%s:%d: '%s' is neither a registered protocol nor a "
                     "seed\n",
                     cli.seed_file.c_str(), lineno, first.c_str());
        return false;
      }
      // Bare seed: run it under the --protocol selection.
      for (const auto& protocol : protocols) {
        line_runs.push_back(planned_seed_run(cli, protocol, seed));
      }
    }
    // Per-line flag overrides (written by --failures-out): the run must
    // replay under the configuration it failed with.
    std::string flag;
    while (ls >> flag) {
      if (!apply_run_flag(flag, &line_runs, lineno)) return false;
    }
    planned->insert(planned->end(), line_runs.begin(), line_runs.end());
    ++pos;
  }
  return true;
}

/// An evolved candidate as a persistable run under the CLI flags — the ONE
/// place the evolve-mode writers (--failures-out, --corpus-out) derive the
/// replay configuration from, so new per-run flags cannot drift between
/// them.
PlannedRun planned_run_of(const CliOptions& cli,
                          const chaos::EvolveCandidate& c) {
  PlannedRun run = planned_seed_run(cli, c.protocol, c.schedule.seed);
  run.schedule = c.schedule;
  return run;
}

chaos::RunOptions run_options_of(const CliOptions& cli,
                                 const PlannedRun& run) {
  chaos::RunOptions opt;
  opt.protocol = run.protocol;
  opt.seed = run.seed;
  opt.schedule = run.schedule;
  opt.num_replicas = cli.replicas;
  opt.inject_quorum_bug = run.inject_quorum_bug;
  opt.compaction_log_cap = run.compaction_cap;
  opt.crash_restarts = run.restarts;
  opt.inject_persistence_bug = run.inject_persistence_bug;
  opt.wan = run.wan;
  opt.groups = run.groups;
  return opt;
}

/// The --evolve mode: population from the seed file + fresh randomness,
/// N generations of keep-the-top/mutate, elite corpus out.
int run_evolution(const CliOptions& cli,
                  const std::vector<std::string>& protocols,
                  const std::vector<PlannedRun>& planned) {
  chaos::EvolveOptions eopt;
  eopt.generations = cli.evolve;
  eopt.population = cli.population;
  eopt.elite = cli.elite;
  eopt.rng_seed = cli.seed;
  eopt.protocols = protocols;
  eopt.base.num_replicas = cli.replicas;
  eopt.base.inject_quorum_bug = cli.inject_quorum_bug;
  eopt.base.compaction_log_cap = cli.compaction_cap;
  eopt.base.crash_restarts = cli.restarts;
  eopt.base.inject_persistence_bug = cli.inject_persistence_bug;
  eopt.base.wan = cli.wan;
  eopt.base.groups = cli.groups;

  // Seed the population from --seed-file entries: explicit schedule blocks
  // verbatim, seed lines expanded exactly as run_one would expand them.
  std::vector<chaos::EvolveCandidate> seeds;
  for (const PlannedRun& pr : planned) {
    chaos::EvolveCandidate cand;
    cand.protocol = pr.protocol;
    cand.schedule = chaos::schedule_of(run_options_of(cli, pr));
    seeds.push_back(std::move(cand));
  }

  // praft-lint: allow(D2 wall-clock is reporting-only; never in trajectories)
  const auto wall_start = std::chrono::steady_clock::now();
  const chaos::EvolveStats stats = chaos::evolve(eopt, std::move(seeds));
  for (const chaos::RunResult& r : stats.failures) print_failure(r);
  if (!cli.failures_out.empty() && !stats.failures.empty()) {
    // Evolved failures are only replayable as schedule blocks: persist the
    // exact (protocol, schedule, flags) each failing run executed under.
    std::FILE* ff = std::fopen(cli.failures_out.c_str(), "w");
    if (ff == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", cli.failures_out.c_str());
      return 2;
    }
    for (size_t i = 0; i < stats.failed_candidates.size(); ++i) {
      const PlannedRun run =
          planned_run_of(cli, stats.failed_candidates[i]);
      const std::string violated = stats.failures[i].violations.empty()
                                       ? "?"
                                       : stats.failures[i].violations.front();
      write_entry(ff, run, "FAIL: " + violated);
    }
    std::fclose(ff);
  }

  for (size_t g = 0; g < stats.generation_mean.size(); ++g) {
    std::printf("evolve: gen %zu archive mean cov %.1f\n", g,
                stats.generation_mean[g]);
  }
  if (!cli.corpus_out.empty() && !stats.population.empty()) {
    std::FILE* cf = std::fopen(cli.corpus_out.c_str(), "w");
    if (cf == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", cli.corpus_out.c_str());
      return 2;
    }
    std::fprintf(cf,
                 "# chaos corpus: elite population of %d-generation "
                 "evolution (%zu schedules)\n",
                 cli.evolve, stats.population.size());
    std::fprintf(cf,
                 "# regenerate: chaos_runner --protocol=%s --evolve=%d "
                 "--population=%d --elite=%d --seed=%llu%s%s "
                 "--corpus-out=<this file>\n",
                 cli.protocol.c_str(), cli.evolve, cli.population, cli.elite,
                 static_cast<unsigned long long>(cli.seed),
                 cli.restarts ? " --restarts" : "",
                 cli.inject_quorum_bug ? " --inject-quorum-bug" : "");
    for (const chaos::EvolveCandidate& c : stats.population) {
      const PlannedRun run = planned_run_of(cli, c);
      char comment[32];
      std::snprintf(comment, sizeof(comment), "cov=%llu",
                    static_cast<unsigned long long>(c.score));
      write_entry(cf, run, comment);
    }
    std::fclose(cf);
    std::printf("corpus: wrote %zu evolved schedules to %s\n",
                stats.population.size(), cli.corpus_out.c_str());
  }
  const double elapsed =
      // praft-lint: allow(D2 wall-clock is reporting-only; not in trajectories)
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  const int failures = static_cast<int>(stats.failures.size());
  std::printf(
      "evolve: %llu runs over %d generation(s) in %.1fs, elite mean cov "
      "%.1f best %llu, %d failure(s)\n",
      static_cast<unsigned long long>(stats.runs), cli.evolve, elapsed,
      stats.mean_score, static_cast<unsigned long long>(stats.best_score),
      failures);
  return failures > 99 ? 99 : failures;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    bool ok = true;
    if (parse_flag(argv[i], "--protocol", &v) && v != nullptr) {
      cli.protocol = v;
    } else if (parse_flag(argv[i], "--seed", &v) && v != nullptr) {
      ok = parse_u64_value(v, &cli.seed);
    } else if (parse_flag(argv[i], "--seeds", &v) && v != nullptr) {
      ok = parse_int_value(v, &cli.seeds) && cli.seeds >= 1;
    } else if (parse_flag(argv[i], "--replicas", &v) && v != nullptr) {
      ok = parse_int_value(v, &cli.replicas) && cli.replicas >= 2;
    } else if (parse_flag(argv[i], "--inject-quorum-bug", &v)) {
      cli.inject_quorum_bug = true;
    } else if (parse_flag(argv[i], "--restarts", &v)) {
      cli.restarts = true;
    } else if (parse_flag(argv[i], "--inject-persistence-bug", &v)) {
      cli.inject_persistence_bug = true;
    } else if (parse_flag(argv[i], "--wan", &v)) {
      cli.wan = true;
    } else if (parse_flag(argv[i], "--groups", &v) && v != nullptr) {
      ok = parse_int_value(v, &cli.groups) && cli.groups >= 1;
    } else if (parse_flag(argv[i], "--corpus-out", &v) && v != nullptr) {
      cli.corpus_out = v;
    } else if (parse_flag(argv[i], "--corpus-size", &v) && v != nullptr) {
      uint64_t size = 0;
      ok = parse_u64_value(v, &size) && size >= 1;
      cli.corpus_size = static_cast<size_t>(size);
    } else if (parse_flag(argv[i], "--compaction-cap", &v) && v != nullptr) {
      uint64_t cap = 0;
      ok = parse_u64_value(v, &cap);
      cli.compaction_cap = static_cast<size_t>(cap);
    } else if (parse_flag(argv[i], "--seed-file", &v) && v != nullptr) {
      cli.seed_file = v;
    } else if (parse_flag(argv[i], "--evolve", &v) && v != nullptr) {
      ok = parse_int_value(v, &cli.evolve) && cli.evolve >= 1;
    } else if (parse_flag(argv[i], "--population", &v) && v != nullptr) {
      ok = parse_int_value(v, &cli.population) && cli.population >= 2;
    } else if (parse_flag(argv[i], "--elite", &v) && v != nullptr) {
      ok = parse_int_value(v, &cli.elite) && cli.elite >= 1;
    } else if (parse_flag(argv[i], "--verify-determinism", &v)) {
      cli.verify_determinism = true;
    } else if (parse_flag(argv[i], "--verbose", &v)) {
      cli.verbose = true;
    } else if (parse_flag(argv[i], "--stop-on-failure", &v)) {
      cli.stop_on_failure = true;
    } else if (parse_flag(argv[i], "--failures-out", &v) && v != nullptr) {
      cli.failures_out = v;
    } else {
      usage(argv[0]);
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "invalid value in '%s'\n", argv[i]);
      usage(argv[0]);
      return 2;
    }
  }
  if (cli.elite >= cli.population) {
    std::fprintf(stderr, "--elite must be smaller than --population\n");
    return 2;
  }
  if (cli.verify_determinism && cli.evolve > 0) {
    std::fprintf(stderr,
                 "--verify-determinism applies to flat / seed-file batches, "
                 "not --evolve\n");
    return 2;
  }

  std::vector<std::string> protocols;
  if (cli.protocol == "all") {
    protocols = consensus::protocol_names();
  } else if (consensus::ProtocolRegistry::instance().contains(cli.protocol)) {
    protocols.push_back(cli.protocol);
  } else {
    std::fprintf(stderr, "unknown protocol '%s'\n", cli.protocol.c_str());
    usage(argv[0]);
    return 2;
  }

  // Resolve the run list: either the contiguous --seed/--seeds range, or an
  // explicit seed file (e.g. a saved --failures-out / --corpus-out file).
  std::vector<PlannedRun> planned;
  if (!cli.seed_file.empty()) {
    if (!load_seed_file(cli, protocols, &planned)) return 2;
  } else if (cli.evolve == 0) {
    for (const auto& protocol : protocols) {
      for (int k = 0; k < cli.seeds; ++k) {
        planned.push_back(planned_seed_run(
            cli, protocol, cli.seed + static_cast<uint64_t>(k)));
      }
    }
  }

  if (cli.evolve > 0) return run_evolution(cli, protocols, planned);

  struct CorpusEntry {
    uint64_t score = 0;
    PlannedRun run;
  };
  std::vector<CorpusEntry> corpus;

  std::FILE* failures_file = nullptr;
  if (!cli.failures_out.empty()) {
    failures_file = std::fopen(cli.failures_out.c_str(), "w");
    if (failures_file == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", cli.failures_out.c_str());
      return 2;
    }
  }

  // praft-lint: allow(D2 wall-clock is reporting-only; never in trajectories)
  const auto wall_start = std::chrono::steady_clock::now();
  int failures = 0;
  uint64_t runs = 0;
  for (const PlannedRun& pr : planned) {
    const chaos::RunResult r = chaos::run_one(run_options_of(cli, pr));
    ++runs;
    if (cli.verbose) {
      std::printf("%s protocol=%s seed=%llu %s\n", r.ok ? "ok  " : "FAIL",
                  r.protocol.c_str(), static_cast<unsigned long long>(r.seed),
                  counters_of(r).c_str());
    }
    bool deterministic = true;
    if (cli.verify_determinism) {
      // The cheap runtime backstop for what praft_lint's D1/D2 rules guard
      // statically: the same (protocol, seed, options) must reproduce the
      // exact observation stream. Any divergence — unordered-container
      // iteration leaking into emission, a stray wall-clock read — shows up
      // as a coverage-counter or trace-fingerprint mismatch on the rerun.
      const chaos::RunResult r2 = chaos::run_one(run_options_of(cli, pr));
      ++runs;
      deterministic = r2.ok == r.ok && counters_of(r2) == counters_of(r);
      if (!deterministic) {
        std::printf("NONDETERMINISTIC protocol=%s seed=%llu:\n  run 1: %s %s\n"
                    "  run 2: %s %s\n",
                    r.protocol.c_str(), static_cast<unsigned long long>(r.seed),
                    r.ok ? "ok" : "FAIL", counters_of(r).c_str(),
                    r2.ok ? "ok" : "FAIL", counters_of(r2).c_str());
      }
    }
    if (!cli.corpus_out.empty() && r.ok && deterministic) {
      corpus.push_back(CorpusEntry{chaos::coverage_score(r), pr});
    }
    if (!r.ok || !deterministic) {
      ++failures;
      if (!r.ok) print_failure(r);
      if (failures_file != nullptr) {
        // Flags ride along so --seed-file replays the exact configuration
        // the run failed under.
        write_entry(failures_file, pr,
                    !r.ok ? "repro: " + r.repro
                          : "NONDETERMINISTIC: divergent rerun");
        std::fflush(failures_file);
      }
      if (cli.stop_on_failure) break;
    }
  }
  if (failures_file != nullptr) std::fclose(failures_file);
  if (!cli.corpus_out.empty()) {
    // Persist the top-coverage runs in the --seed-file format so a later
    // batch — or the --evolve mutator — replays exactly these runs. Dedupe
    // first: a seed file that repeats an entry must not waste elite slots.
    std::set<std::string> seen;
    std::vector<CorpusEntry> unique;
    for (CorpusEntry& ce : corpus) {
      if (seen.insert(dedup_key(ce.run)).second) {
        unique.push_back(std::move(ce));
      }
    }
    corpus = std::move(unique);
    std::stable_sort(corpus.begin(), corpus.end(),
                     [](const CorpusEntry& a, const CorpusEntry& b) {
                       return a.score > b.score;
                     });
    if (corpus.size() > cli.corpus_size) corpus.resize(cli.corpus_size);
    std::FILE* cf = std::fopen(cli.corpus_out.c_str(), "w");
    if (cf == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", cli.corpus_out.c_str());
      return 2;
    }
    std::fprintf(cf, "# chaos corpus: top-%zu coverage runs of this batch\n",
                 corpus.size());
    for (const CorpusEntry& ce : corpus) {
      char comment[32];
      std::snprintf(comment, sizeof(comment), "cov=%llu",
                    static_cast<unsigned long long>(ce.score));
      write_entry(cf, ce.run, comment);
    }
    std::fclose(cf);
    std::printf("corpus: wrote top %zu runs to %s\n", corpus.size(),
                cli.corpus_out.c_str());
  }
  const double elapsed =
      // praft-lint: allow(D2 wall-clock is reporting-only; not in trajectories)
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  // Count the protocols actually run (a seed file may name a different set
  // than the --protocol selection).
  std::vector<std::string> ran;
  for (const PlannedRun& pr : planned) {
    if (std::find(ran.begin(), ran.end(), pr.protocol) == ran.end()) {
      ran.push_back(pr.protocol);
    }
  }
  std::printf("chaos: %llu runs (%zu protocol(s)) in %.1fs, %d failure(s)\n",
              static_cast<unsigned long long>(runs), ran.size(), elapsed,
              failures);
  return failures > 99 ? 99 : failures;
}
