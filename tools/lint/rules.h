#pragma once

#include <set>
#include <string>
#include <vector>

#include "lint/model.h"

namespace praft::lint {

/// The contract praft_lint enforces, one rule per unwritten assumption the
/// repo's determinism / wire / durability claims rest on:
///
///   D1  range-for or begin()-iterator loops over unordered_map /
///       unordered_set values in src/ and tools/ — iteration order is
///       implementation-defined, and order leaking into message emission or
///       RNG consumption silently breaks seed-replay determinism.
///   D2  banned nondeterminism sources outside common/rng.h:
///       {system,steady,high_resolution}_clock::now, time()/clock()/
///       gettimeofday/clock_gettime, rand/srand/random_device/mt19937 —
///       trajectories must be pure functions of the seed.
///   W1  wire completeness: every `using Message = std::variant<...>`
///       alternative in a directory with a sibling wire.cpp must be a
///       struct whose body has a `static void fields(` list (the codec in
///       net/field_codec.h derives its wire layout from it) and an
///       operator== (round-trip verification needs it).
///   C1  assert( / bare abort( in src/ — invariants must go through
///       PRAFT_CHECK / PRAFT_CHECK_MSG (common/check.h) so the simulator
///       and tests observe them as CheckFailure instead of a process kill.
///   P1  durability-barrier bypass: in src/{raft,raftstar,paxos,mencius},
///       every outgoing message must route through the Persister seam
///       (persister_.send / send_unsynced); a raw env/host send skips the
///       fsync barrier its payload may depend on.
///
/// Suppress a finding with `// praft-lint: allow(RULE reason)` on the same
/// line or the line above.
///
/// Returns findings sorted by (file, line, rule), suppressions applied.
[[nodiscard]] std::vector<Finding> run_rules(const Project& p);

/// Same, restricted to a subset of rule names (empty set = all).
[[nodiscard]] std::vector<Finding> run_rules(const Project& p,
                                             const std::set<std::string>& only);

}  // namespace praft::lint
