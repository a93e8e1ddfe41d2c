#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "chaos/runner.h"
#include "chaos/schedule_gen.h"
#include "common/rng.h"

namespace praft::chaos {

// ---------------------------------------------------------------------------
// Runs <-> text: the run-file format --seed-file reads and --failures-out /
// --corpus-out write. '#' starts a comment. An entry is a "<seed>" line (run
// once per protocol of the --protocol selection), a "<protocol> <seed>
// [flags]" line, or a block holding an explicit schedule, since a mutated
// schedule is no longer expressible as a seed:
//
//   schedule raft --restarts {
//     seed 42
//     drop 0.0123...          # doubles print with %.17g and round-trip exactly
//     dup 0
//     reorder 0
//     clients 1
//     read_fraction 0.45...
//     conflict_rate 0.05...
//     num_records 64
//     value_size 8
//     partitions 1
//     event leader_crash a=-1 b=-1 p=0 from=2100000 to=2900000
//     event crash_restart a=3 b=-1 p=0 from=2400000 to=3100000
//   }
//
// from/to are in simulated microseconds. The per-run flags are one table
// (kRunFlags in mutator.cpp): argv, run files and RunResult::repro all read
// and print them through it, so every saved run replays under exactly the
// RunOptions it ran with. serialize -> parse -> serialize is the identity.
// ---------------------------------------------------------------------------

/// The per-run flags of `opt` that differ from RunOptions{}, each as
/// " --name" or " --name=N", in table order. Protocol and seed are not flags.
[[nodiscard]] std::string run_flags(const RunOptions& opt);

/// Applies one per-run flag ("--wan", "--groups=3") to `*opt`. Returns false
/// with a message in `*error` for an unknown flag or a bad value.
[[nodiscard]] bool parse_run_flag(const std::string& token, RunOptions* opt,
                                  std::string* error);

/// One run-file entry: "<protocol> <seed>[ flags]", or a schedule block
/// headed "<protocol>[ flags]" when `run` carries an explicit schedule. A
/// non-empty `comment` ends the line, or precedes the block on its own line.
[[nodiscard]] std::string serialize_run(const RunOptions& run,
                                        const std::string& comment = "");

/// Parses a run file. Each entry starts from `base` with its own flags
/// applied on top; a bare seed runs once per name in `protocols`. Appends
/// the runs to `*runs` and returns true, or returns false with
/// "<name>:<line>: <what>" in `*error`.
[[nodiscard]] bool parse_runs(std::istream& in, const std::string& name,
                              const RunOptions& base,
                              const std::vector<std::string>& protocols,
                              std::vector<RunOptions>* runs,
                              std::string* error);

/// Serializes `s` as one "schedule [header_extra] { ... }" block.
[[nodiscard]] std::string serialize_schedule(const Schedule& s,
                                             const std::string& header_extra =
                                                 "");

/// Parses one block from `lines` starting at `*pos` (which must index the
/// "schedule ... {" opener; '#' comments are stripped). On success advances
/// `*pos` past the closing "}", fills `*out` and `*header_extra` (the tokens
/// between "schedule" and "{"), and returns true; on failure returns false
/// with a message in `*error`.
[[nodiscard]] bool parse_schedule(const std::vector<std::string>& lines,
                                  size_t* pos, Schedule* out,
                                  std::string* header_extra,
                                  std::string* error);

// ---------------------------------------------------------------------------
// Mutation operators. Each is a pure function of (input schedules, the
// explicit RNG state, limits): evolved runs stay exactly as deterministic
// as seed-expanded ones. Every emitted event is re-clamped to the
// generator's postcondition (faults_from <= from < to <= faults_until).
// ---------------------------------------------------------------------------

enum class MutationOp {
  kShiftWindow,      // slide one fault window earlier/later
  kStretchWindow,    // scale one window's length by 0.5x-2x
  kSplitWindow,      // replace one window with two sub-windows + a gap
  kSwapKind,         // re-roll one event's fault kind (re-drawing fields)
  kRetargetReplica,  // re-draw the victim replica (and partition peer)
  kPerturbRates,     // jitter whole-run drop/dup/reorder rates
  kPerturbWorkload,  // jitter read fraction / conflict rate / client count
  kAddEvent,         // insert one fresh random event
  kDropEvent,        // remove one event (never below one)
  kReseed,           // re-draw the cluster RNG seed (timing-stream jump)
};

/// Applies one specific operator. Exposed for targeted tests; evolution
/// uses the weighted dispatcher below.
[[nodiscard]] Schedule apply_mutation(const Schedule& s, MutationOp op,
                                      Rng& rng, const ScheduleLimits& limits);

/// One mutation step: picks 1-2 weighted random operators and applies them.
[[nodiscard]] Schedule mutate_schedule(const Schedule& s, Rng& rng,
                                       const ScheduleLimits& limits);

/// Crossover: a child drawing its network/workload knobs from either parent
/// and splicing fault events from both.
[[nodiscard]] Schedule splice_schedules(const Schedule& a, const Schedule& b,
                                        Rng& rng,
                                        const ScheduleLimits& limits);

// ---------------------------------------------------------------------------
// Coverage-guided evolution: seed a population from random schedules (plus
// any replayed corpus), score each run with the harness's coverage counters,
// and keep/mutate the top scorers for N generations.
// ---------------------------------------------------------------------------

struct EvolveCandidate {
  /// The exact run: protocol, per-run flags and, once evolve has seen it,
  /// an explicit schedule whose seed is the run's seed. A corpus seed's run
  /// keeps its own flags; fresh candidates take EvolveOptions::base's, and
  /// offspring their parent's.
  RunOptions run;
  uint64_t score = 0;  // coverage_score of its run (filled by evolve)
};

struct EvolveOptions {
  int generations = 4;
  /// Candidates evaluated per generation (later generations = elites +
  /// their offspring). Generation 0 evaluates ALL corpus seeds, topped up
  /// with fresh random schedules to at least this size.
  int population = 16;
  /// Top-of-archive survivors bred each generation. Must be < population.
  int elite = 4;
  /// Seeds the evolution RNG (selection, operator choice, fresh schedules).
  uint64_t rng_seed = 1;
  /// Protocol pool for fresh random candidates (offspring mostly inherit
  /// their parent's protocol, with a small cross-protocol re-roll chance —
  /// the paper's parallelism means a rare interleaving found under one
  /// protocol is worth trying on the others).
  std::vector<std::string> protocols{"raft"};
  /// Flag/limit template of the fresh random candidates (protocol, seed and
  /// schedule are drawn per candidate).
  RunOptions base;
};

struct EvolveStats {
  uint64_t runs = 0;  // total run_one invocations (the comparison budget)
  /// Top-`population` candidates ever seen (the elite archive), score-desc,
  /// deduped by (protocol, serialized schedule). This is what --corpus-out
  /// persists.
  std::vector<EvolveCandidate> population;
  /// Mean/best coverage score of `population`.
  double mean_score = 0.0;
  uint64_t best_score = 0;
  /// Archive mean after each generation (index 0 = the random gen-0 batch),
  /// so callers can print the learning curve.
  std::vector<double> generation_mean;
  /// Invariant-violating runs encountered while evolving (an evolved
  /// schedule that breaks a protocol is a find, not a breeding candidate).
  /// `failed_candidates[i].run` is the exact run that produced
  /// `failures[i]`.
  std::vector<RunResult> failures;
  std::vector<EvolveCandidate> failed_candidates;
};

/// Runs the evolution loop. A seed without an explicit schedule runs the one
/// its seed expands to under its own flags (schedule_of). Deterministic for
/// fixed (opt, seeds).
[[nodiscard]] EvolveStats evolve(const EvolveOptions& opt,
                                 std::vector<EvolveCandidate> seeds);

}  // namespace praft::chaos
