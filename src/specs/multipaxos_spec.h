#pragma once

#include <memory>

#include "spec/checker.h"
#include "spec/spec.h"

namespace praft::specs {

/// Bounded-scope parameters (TLC-style) shared by the MultiPaxos and Raft*
/// specs. Ballot b is owned by acceptor (b mod n) — the standard
/// proposer-unique ballot construction, which Appendix B leaves implicit but
/// the OneValuePerBallot invariant requires.
struct ConsensusScope {
  int acceptors = 2;
  int ballots = 2;   // ballots 1..ballots (0 = initial, never proposed)
  int indexes = 1;   // instances 0..indexes-1
  spec::Domain values;  // candidate values; defaults to {1}

  [[nodiscard]] int majority() const { return acceptors / 2 + 1; }
  [[nodiscard]] int ballot_owner(int64_t b) const {
    return static_cast<int>(b) % acceptors;
  }
};

/// MultiPaxos per Appendix B.1: batched phase 1 (BecomeLeader collects
/// accepted values from a quorum of 1b messages and adopts the
/// highest-ballot entry per instance), phase 2 per instance, out-of-order
/// choice. Variable names follow the TLA+ module.
///
/// Invariants: Agreement (one value chosen per instance) and
/// OneValuePerBallot (B.1's key safety lemmas).
std::unique_ptr<spec::Spec> make_multipaxos_spec(const ConsensusScope& scope);

/// Shared helpers for both specs and the optimization deltas (entry =
/// <<bal, val>>).
namespace detail {
/// Acceptors 0..acceptors-1, ballots 1..ballots, indexes 0..indexes-1, and
/// the non-empty acceptor subsets as bitmasks.
spec::Domain acceptor_domain(const ConsensusScope& sc);
spec::Domain ballot_domain(const ConsensusScope& sc);
spec::Domain index_domain(const ConsensusScope& sc);
spec::Domain mask_domain(const ConsensusScope& sc);
/// A tuple of `cell`, one per acceptor / per index.
spec::Value per_acceptor(const ConsensusScope& sc, const spec::Value& cell);
spec::Value per_index(const ConsensusScope& sc, const spec::Value& cell);

spec::Value empty_entry();
spec::Value highest_ballot_entry(const std::vector<spec::Value>& logs,
                                 size_t index);
bool chosen_at(const spec::Spec& sp, const spec::State& s,
               const ConsensusScope& scope, int index, int64_t bal,
               const spec::Value& val);
}  // namespace detail

}  // namespace praft::specs
