// Seeded fault-schedule fuzzer for every registered consensus protocol.
//
//   chaos_runner --protocol=raft --seed=42          # replay one run
//   chaos_runner --protocol=all --seeds=200         # fuzz the 4x matrix
//   chaos_runner --protocol=raft --seeds=50 --inject-quorum-bug
//   chaos_runner --protocol=all --seeds=50 --compaction-cap=64
//   chaos_runner --protocol=all --seeds=200 --restarts   # crash-restart faults
//   chaos_runner --protocol=all --seeds=25 --restarts --fsync=0 --sync-batch=0
//       # restarts over zero-cost stores (fsync and group-commit window in us)
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
// --seed-file replays an explicit list instead of a contiguous range, in the
// run-file format of src/chaos/mutator.h: "<seed>" lines (run under
// --protocol), "<protocol> <seed> [flags]" lines and "schedule <protocol>
// [flags] { ... }" blocks holding an explicit evolved schedule. Every per-run
// flag (--replicas, --restarts, --compaction-cap=N, ...) is one row of the
// table in src/chaos/mutator.cpp, which parses the command line, the run
// files and the repro lines alike. --failures-out and --corpus-out both
// write this format, so any saved run replays under the exact configuration
// it was found with.
//
// --evolve=N runs the coverage-guided evolution loop instead of a flat
// batch: the population seeds from --seed-file (if given) plus fresh random
// schedules, every run is scored with the harness coverage counters (leader
// changes, revocations, snapshot installs, restarts), and the top scorers
// are kept/mutated for N generations. Seed-file entries run under their own
// flags, fresh schedules under the CLI flags (--restarts, --compaction-cap,
// ...), and offspring under their parent's; --corpus-out persists the elite
// population as schedule blocks.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
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
  /// The per-run flags (--replicas, --restarts, ...): every run, flat or
  /// evolved, starts from these; a run file's entries add their own on top.
  chaos::RunOptions run;
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

// Numeric flag values must parse whole: `--seeds=abc` is a usage error
// (exit 2), not a silent zero-run batch that exits green.
template <typename T>
bool parse_number(const char* v, T* out) {
  if (v == nullptr) return false;
  const char* end = v + std::strlen(v);
  const auto [stop, ec] = std::from_chars(v, end, *out);
  return ec == std::errc() && stop == end;
}

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--protocol=NAME|all] [--seed=N] [--seeds=K] [--replicas=N]\n"
      "          [--inject-quorum-bug] [--compaction-cap=N] [--restarts]\n"
      "          [--inject-persistence-bug] [--fsync=US] [--sync-batch=US]\n"
      "          [--wan] [--groups=N] [--verbose]\n"
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

/// The --evolve mode: population from the seed file + fresh randomness,
/// N generations of keep-the-top/mutate, elite corpus out.
int run_evolution(const CliOptions& cli,
                  const std::vector<std::string>& protocols,
                  const std::vector<chaos::RunOptions>& planned) {
  chaos::EvolveOptions eopt;
  eopt.generations = cli.evolve;
  eopt.population = cli.population;
  eopt.elite = cli.elite;
  eopt.rng_seed = cli.seed;
  eopt.protocols = protocols;
  eopt.base = cli.run;

  // Seed the population from the --seed-file entries, each under its own
  // flags.
  std::vector<chaos::EvolveCandidate> seeds;
  for (const chaos::RunOptions& run : planned) seeds.push_back({run});

  // praft-lint: allow(D2 wall-clock is reporting-only; never in trajectories)
  const auto wall_start = std::chrono::steady_clock::now();
  const chaos::EvolveStats stats = chaos::evolve(eopt, std::move(seeds));
  for (const chaos::RunResult& r : stats.failures) print_failure(r);
  if (!cli.failures_out.empty() && !stats.failures.empty()) {
    // Evolved failures are only replayable as schedule blocks: persist the
    // exact run each failure came from.
    std::FILE* ff = std::fopen(cli.failures_out.c_str(), "w");
    if (ff == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", cli.failures_out.c_str());
      return 2;
    }
    for (size_t i = 0; i < stats.failed_candidates.size(); ++i) {
      const std::string violated = stats.failures[i].violations.empty()
                                       ? "?"
                                       : stats.failures[i].violations.front();
      std::fputs(chaos::serialize_run(stats.failed_candidates[i].run,
                                      "FAIL: " + violated)
                     .c_str(),
                 ff);
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
                 "--population=%d --elite=%d --seed=%llu%s "
                 "--corpus-out=<this file>\n",
                 cli.protocol.c_str(), cli.evolve, cli.population, cli.elite,
                 static_cast<unsigned long long>(cli.seed),
                 chaos::run_flags(cli.run).c_str());
    for (const chaos::EvolveCandidate& c : stats.population) {
      std::fputs(
          chaos::serialize_run(c.run, "cov=" + std::to_string(c.score)).c_str(),
          cf);
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
    } else if (parse_flag(argv[i], "--seed", &v)) {
      ok = parse_number(v, &cli.seed);
    } else if (parse_flag(argv[i], "--seeds", &v)) {
      ok = parse_number(v, &cli.seeds) && cli.seeds >= 1;
    } else if (parse_flag(argv[i], "--corpus-out", &v) && v != nullptr) {
      cli.corpus_out = v;
    } else if (parse_flag(argv[i], "--corpus-size", &v)) {
      ok = parse_number(v, &cli.corpus_size) && cli.corpus_size >= 1;
    } else if (parse_flag(argv[i], "--seed-file", &v) && v != nullptr) {
      cli.seed_file = v;
    } else if (parse_flag(argv[i], "--evolve", &v)) {
      ok = parse_number(v, &cli.evolve) && cli.evolve >= 1;
    } else if (parse_flag(argv[i], "--population", &v)) {
      ok = parse_number(v, &cli.population) && cli.population >= 2;
    } else if (parse_flag(argv[i], "--elite", &v)) {
      ok = parse_number(v, &cli.elite) && cli.elite >= 1;
    } else if (parse_flag(argv[i], "--verify-determinism", &v)) {
      cli.verify_determinism = true;
    } else if (parse_flag(argv[i], "--verbose", &v)) {
      cli.verbose = true;
    } else if (parse_flag(argv[i], "--stop-on-failure", &v)) {
      cli.stop_on_failure = true;
    } else if (parse_flag(argv[i], "--failures-out", &v) && v != nullptr) {
      cli.failures_out = v;
    } else if (std::string error;
               !chaos::parse_run_flag(argv[i], &cli.run, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
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

  std::vector<std::string> protocols = consensus::protocol_names();
  if (cli.protocol != "all") {
    if (std::find(protocols.begin(), protocols.end(), cli.protocol) ==
        protocols.end()) {
      std::fprintf(stderr, "unknown protocol '%s'\n", cli.protocol.c_str());
      usage(argv[0]);
      return 2;
    }
    protocols = {cli.protocol};
  }

  // Resolve the run list: either the contiguous --seed/--seeds range, or an
  // explicit seed file (e.g. a saved --failures-out / --corpus-out file).
  std::vector<chaos::RunOptions> planned;
  if (!cli.seed_file.empty()) {
    std::ifstream in(cli.seed_file);
    std::string error;
    if (!in) {
      std::fprintf(stderr, "cannot read seed file %s\n",
                   cli.seed_file.c_str());
      return 2;
    }
    if (!chaos::parse_runs(in, cli.seed_file, cli.run, protocols, &planned,
                           &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
  } else if (cli.evolve == 0) {
    for (const auto& protocol : protocols) {
      for (int k = 0; k < cli.seeds; ++k) {
        chaos::RunOptions run = cli.run;
        run.protocol = protocol;
        run.seed = cli.seed + static_cast<uint64_t>(k);
        planned.push_back(std::move(run));
      }
    }
  }

  if (cli.evolve > 0) return run_evolution(cli, protocols, planned);

  struct CorpusEntry {
    uint64_t score = 0;
    chaos::RunOptions run;
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
  for (const chaos::RunOptions& run : planned) {
    const chaos::RunResult r = chaos::run_one(run);
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
      const chaos::RunResult r2 = chaos::run_one(run);
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
      corpus.push_back(CorpusEntry{chaos::coverage_score(r), run});
    }
    if (!r.ok || !deterministic) {
      ++failures;
      if (!r.ok) print_failure(r);
      if (failures_file != nullptr) {
        // Flags ride along so --seed-file replays the exact configuration
        // the run failed under.
        std::fputs(chaos::serialize_run(
                       run, !r.ok ? "repro: " + r.repro
                                  : "NONDETERMINISTIC: divergent rerun")
                       .c_str(),
                   failures_file);
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
      if (seen.insert(chaos::serialize_run(ce.run)).second) {
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
      std::fputs(
          chaos::serialize_run(ce.run, "cov=" + std::to_string(ce.score))
              .c_str(),
          cf);
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
  for (const chaos::RunOptions& run : planned) {
    if (std::find(ran.begin(), ran.end(), run.protocol) == ran.end()) {
      ran.push_back(run.protocol);
    }
  }
  std::printf("chaos: %llu runs (%zu protocol(s)) in %.1fs, %d failure(s)\n",
              static_cast<unsigned long long>(runs), ran.size(), elapsed,
              failures);
  return failures > 99 ? 99 : failures;
}
