#include "specs/deltas.h"

namespace praft::specs {

using core::AddedAction;
using core::DeltaUpdates;
using core::ModifiedAction;
using core::VarFn;
using spec::Domain;
using spec::Invariant;
using spec::Spec;
using spec::State;
using spec::V;
using spec::Value;
using spec::VT;

using detail::acceptor_domain;
using detail::index_domain;
using detail::per_acceptor;
using detail::per_index;

namespace {

constexpr int kLeaseDuration = 2;
constexpr int kTimerMax = 3;

/// LeaseIsActive(p): a quorum of grantors has leases[a][p] >= timer.
bool lease_active(const ConsensusScope& sc, const Value& leases, int64_t timer,
                  int p) {
  int count = 0;
  for (int a = 0; a < sc.acceptors; ++a) {
    if (leases.at(static_cast<size_t>(a)).at(static_cast<size_t>(p)).as_int() >=
        timer) {
      ++count;
    }
  }
  return count >= sc.majority();
}

bool voted_for(const ConsensusScope& sc, const Value& votes, int a, int i,
               int64_t b, const Value& v) {
  (void)sc;
  return votes.at(static_cast<size_t>(a)).at(static_cast<size_t>(i))
      .contains(VT(V(b), v));
}

/// CanCommitAt (B.3): some quorum voted AND every lease holder granted by a
/// quorum member voted.
bool can_commit_at(const ConsensusScope& sc, const Value& votes,
                   const Value& leases, int64_t timer, int i, int64_t b,
                   const Value& v) {
  for (int mask = 1; mask < (1 << sc.acceptors); ++mask) {
    int size = 0;
    bool all_voted = true;
    for (int a = 0; a < sc.acceptors; ++a) {
      if ((mask & (1 << a)) == 0) continue;
      ++size;
      all_voted = all_voted && voted_for(sc, votes, a, i, b, v);
    }
    if (size < sc.majority() || !all_voted) continue;
    bool holders_ok = true;
    for (int p = 0; p < sc.acceptors; ++p) {
      bool granted_by_quorum = false;
      for (int a = 0; a < sc.acceptors; ++a) {
        if ((mask & (1 << a)) == 0) continue;
        if (leases.at(static_cast<size_t>(a)).at(static_cast<size_t>(p))
                .as_int() >= timer) {
          granted_by_quorum = true;
        }
      }
      if (granted_by_quorum && !voted_for(sc, votes, p, i, b, v)) {
        holders_ok = false;
      }
    }
    if (holders_ok) return true;
  }
  return false;
}

}  // namespace

Domain pql_values() { return {VT(V("r"), V(1)), VT(V("w"), V(1))}; }

core::OptimizationDelta make_pql_delta(const ConsensusScope& scope) {
  ConsensusScope sc = scope;
  if (sc.values.empty()) sc.values = pql_values();
  core::OptimizationDelta d;
  d.name = "PQL";
  d.new_vars.emplace_back("applyIndex", per_acceptor(sc, V(-1)));
  d.new_vars.emplace_back("timer", V(0));
  d.new_vars.emplace_back("leases",
                          per_acceptor(sc, per_acceptor(sc, V(-1))));

  const Domain accs = acceptor_domain(sc);
  const Domain idxs = index_domain(sc);

  // GrantLease(p, q): p grants q a lease until timer + duration.
  d.added.push_back(AddedAction{
      "GrantLease",
      {accs, accs},
      [sc](const VarFn&, const VarFn& dv,
           const std::vector<Value>& p) -> std::optional<DeltaUpdates> {
        const auto grantor = static_cast<size_t>(p[0].as_int());
        const auto holder = static_cast<size_t>(p[1].as_int());
        const int64_t expiry = dv("timer").as_int() + kLeaseDuration;
        Value leases = dv("leases");
        leases = leases.with_at(
            grantor, leases.at(grantor).with_at(holder, V(expiry)));
        DeltaUpdates u;
        u["leases"] = leases;
        return u;
      }});

  // UpdateTimer: the global timer ticks (bounded for model checking).
  d.added.push_back(AddedAction{
      "UpdateTimer",
      {},
      [](const VarFn&, const VarFn& dv,
         const std::vector<Value>&) -> std::optional<DeltaUpdates> {
        if (dv("timer").as_int() >= kTimerMax) return std::nullopt;
        DeltaUpdates u;
        u["timer"] = V(dv("timer").as_int() + 1);
        return u;
      }});

  // Apply(a, i): execute instance i once it commits under the lease rule.
  d.added.push_back(AddedAction{
      "Apply",
      {accs, idxs},
      [sc](const VarFn& av, const VarFn& dv,
           const std::vector<Value>& p) -> std::optional<DeltaUpdates> {
        const auto a = static_cast<size_t>(p[0].as_int());
        const int i = static_cast<int>(p[1].as_int());
        if (dv("applyIndex").at(a).as_int() + 1 != i) return std::nullopt;
        const Value entry = av("logs").at(a).at(static_cast<size_t>(i));
        if (entry.at(1).is_none()) return std::nullopt;
        if (!can_commit_at(sc, av("votes"), dv("leases"), dv("timer").as_int(),
                           i, entry.at(0).as_int(), entry.at(1))) {
          return std::nullopt;
        }
        DeltaUpdates u;
        u["applyIndex"] = dv("applyIndex").with_at(a, p[1]);
        return u;
      }});

  // ReadAtLocal(a): lease-holding replica serves a read locally. A pure
  // guard (no state change): TLA+'s UNCHANGED vars.
  d.added.push_back(AddedAction{
      "ReadAtLocal",
      {accs},
      [sc](const VarFn& av, const VarFn& dv,
           const std::vector<Value>& p) -> std::optional<DeltaUpdates> {
        const auto a = static_cast<size_t>(p[0].as_int());
        if (!lease_active(sc, dv("leases"), dv("timer").as_int(),
                          static_cast<int>(a))) {
          return std::nullopt;
        }
        if (!(av("logTail").at(a) == dv("applyIndex").at(a))) {
          return std::nullopt;  // pending writes must finish first
        }
        return DeltaUpdates{};
      }});

  // Modified Propose (B.3 Next): writes are proposable only by replicas
  // without an active lease... reads always (they go through the log too).
  ModifiedAction prop;
  prop.base = "Propose";
  prop.clause.apply = [sc](const VarFn&, const VarFn&, const VarFn& dv,
                           const std::vector<Value>& p)
      -> std::optional<DeltaUpdates> {
    const Value& v = p[2];
    const bool is_read = v.is_tuple() && v.at(0) == V("r");
    const auto a = static_cast<int>(p[0].as_int());
    if (!is_read && lease_active(sc, dv("leases"), dv("timer").as_int(), a)) {
      return std::nullopt;
    }
    return DeltaUpdates{};
  };
  d.modified.push_back(std::move(prop));

  // LeaseInv (B.3): every committable value is chosen and known by every
  // active lease holder — local reads are linearizable.
  d.new_invariants.push_back(Invariant{
      "LeaseInv",
      [sc](const Spec& s_, const State& s) {
        const Value& votes = s_.get(s, "votes");
        const Value& leases = s_.get(s, "leases");
        const int64_t timer = s_.get(s, "timer").as_int();
        for (int i = 0; i < sc.indexes; ++i) {
          for (int b = 1; b <= sc.ballots; ++b) {
            for (const Value& v : sc.values) {
              if (!can_commit_at(sc, votes, leases, timer, i, b, v)) continue;
              if (!detail::chosen_at(s_, s, sc, i, b, v)) return false;
              for (int p = 0; p < sc.acceptors; ++p) {
                if (lease_active(sc, leases, timer, p) &&
                    !voted_for(sc, votes, p, i, b, v)) {
                  return false;
                }
              }
            }
          }
        }
        return true;
      }});
  return d;
}

Value mencius_noop() { return VT(V("n"), V(0)); }
Domain mencius_values() { return {VT(V("w"), V(1)), mencius_noop()}; }

core::OptimizationDelta make_checkpoint_delta(const ConsensusScope& scope) {
  ConsensusScope sc = scope;
  if (sc.values.empty()) sc.values = {V(1)};
  core::OptimizationDelta d;
  d.name = "Checkpoint";
  d.new_vars.emplace_back("checkpoint", per_acceptor(sc, V(-1)));

  Domain accs = acceptor_domain(sc);
  Domain idxs = index_domain(sc);
  d.added.push_back(AddedAction{
      "Checkpoint",
      {accs, idxs},
      [sc](const VarFn& av, const VarFn& dv,
           const std::vector<Value>& p) -> std::optional<DeltaUpdates> {
        const auto a = static_cast<size_t>(p[0].as_int());
        const int i = static_cast<int>(p[1].as_int());
        if (dv("checkpoint").at(a).as_int() + 1 != i) return std::nullopt;
        // Only checkpoint chosen instances (reads votes — never writes).
        bool chosen = false;
        const Value& votes = av("votes");
        for (int b = 1; b <= sc.ballots && !chosen; ++b) {
          for (const Value& v : sc.values) {
            int count = 0;
            for (int x = 0; x < sc.acceptors; ++x) {
              if (votes.at(static_cast<size_t>(x)).at(static_cast<size_t>(i))
                      .contains(VT(V(b), v))) {
                ++count;
              }
            }
            if (count >= sc.majority()) {
              chosen = true;
              break;
            }
          }
        }
        if (!chosen) return std::nullopt;
        DeltaUpdates u;
        u["checkpoint"] = dv("checkpoint").with_at(a, p[1]);
        return u;
      }});

  d.new_invariants.push_back(Invariant{
      "CheckpointedImpliesChosen",
      [sc](const Spec& s_, const State& s) {
        for (int a = 0; a < sc.acceptors; ++a) {
          const int64_t cp =
              s_.get(s, "checkpoint").at(static_cast<size_t>(a)).as_int();
          for (int64_t i = 0; i <= cp; ++i) {
            bool chosen = false;
            for (int b = 1; b <= sc.ballots && !chosen; ++b) {
              for (const Value& v : sc.values) {
                if (detail::chosen_at(s_, s, sc, static_cast<int>(i), b, v)) {
                  chosen = true;
                  break;
                }
              }
            }
            if (!chosen) return false;
          }
        }
        return true;
      }});
  return d;
}

core::OptimizationDelta make_mencius_delta(const ConsensusScope& scope) {
  ConsensusScope sc = scope;
  if (sc.values.empty()) sc.values = mencius_values();
  core::OptimizationDelta d;
  d.name = "Mencius";
  d.new_vars.emplace_back("skipTags", per_acceptor(sc, per_index(sc, V(false))));
  d.new_vars.emplace_back("executable", per_acceptor(sc, Value::set({})));
  d.new_vars.emplace_back("skip1b", Value::set({}));
  d.new_vars.emplace_back("propDefaults", Value::set({}));

  const auto owner_of = [sc](int64_t i) {
    return static_cast<int>(i) % sc.acceptors;
  };

  // Modified Propose: the coordination restriction (only the default leader
  // proposes real values; everyone else proposes no-op) plus the isDefault
  // flag attached to the proposal (B.5 Propose/Phase1c).
  ModifiedAction prop;
  prop.base = "Propose";
  prop.clause.apply = [owner_of](const VarFn& a_pre, const VarFn&,
                                 const VarFn& dv,
                                 const std::vector<Value>& p)
      -> std::optional<DeltaUpdates> {
    const auto a = static_cast<int>(p[0].as_int());
    const int64_t i = p[1].as_int();
    const Value& v = p[2];
    const bool is_default = owner_of(i) == a;
    const bool is_noop = v == mencius_noop();
    if (!is_default && !is_noop) return std::nullopt;  // coordinated Paxos
    const int64_t b =
        a_pre("highestBallot").at(static_cast<size_t>(a)).as_int();
    DeltaUpdates u;
    u["propDefaults"] =
        dv("propDefaults").with_added(VT(p[1], V(b), v, V(is_default)));
    return u;
  };
  d.modified.push_back(std::move(prop));

  // Modified Accept (B.5 Phase2b): accepting a no-op from the default leader
  // tags the instance skippable and immediately executable.
  ModifiedAction acc;
  acc.base = "Accept";
  acc.clause.apply = [](const VarFn&, const VarFn&, const VarFn& dv,
                        const std::vector<Value>& p)
      -> std::optional<DeltaUpdates> {
    const auto a = static_cast<size_t>(p[0].as_int());
    const Value& i = p[1];
    const Value& b = p[2];
    const Value& v = p[3];
    if (!(v == mencius_noop()) ||
        !dv("propDefaults").contains(VT(i, b, v, V(true)))) {
      return DeltaUpdates{};  // no extra effect; accept proceeds as usual
    }
    DeltaUpdates u;
    Value tags = dv("skipTags");
    tags = tags.with_at(a, tags.at(a).with_at(
                               static_cast<size_t>(i.as_int()), V(true)));
    u["skipTags"] = tags;
    Value ex = dv("executable");
    ex = ex.with_at(a, ex.at(a).with_added(VT(i, v)));
    u["executable"] = ex;
    return u;
  };
  d.modified.push_back(std::move(acc));

  // Modified Phase1b (B.5): promise replies carry the replier's skip tags.
  ModifiedAction p1b;
  p1b.base = "Phase1b";
  p1b.clause.apply = [](const VarFn&, const VarFn&, const VarFn& dv,
                        const std::vector<Value>& p)
      -> std::optional<DeltaUpdates> {
    const auto a = static_cast<size_t>(p[0].as_int());
    DeltaUpdates u;
    u["skip1b"] = dv("skip1b").with_added(VT(p[0], p[2], dv("skipTags").at(a)));
    return u;
  };
  d.modified.push_back(std::move(p1b));

  // Modified BecomeLeader (B.5 Phase1Succeed): adopt skip tags reported by
  // the promise quorum.
  ModifiedAction bl;
  bl.base = "BecomeLeader";
  bl.clause.apply = [sc](const VarFn& a_pre, const VarFn&, const VarFn& dv,
                         const std::vector<Value>& p)
      -> std::optional<DeltaUpdates> {
    const auto a = static_cast<size_t>(p[0].as_int());
    const int64_t b = a_pre("highestBallot").at(a).as_int();
    Value tags = dv("skipTags");
    Value mine = tags.at(a);
    // Bind the VarFn result to a named value: ranging over a reference into
    // the temporary would dangle.
    const Value skip1b = dv("skip1b");
    for (const Value& m : skip1b.as_set()) {
      if (m.at(1).as_int() != b) continue;
      const Value& their = m.at(2);
      for (int i = 0; i < sc.indexes; ++i) {
        if (their.at(static_cast<size_t>(i)).as_bool()) {
          mine = mine.with_at(static_cast<size_t>(i), V(true));
        }
      }
    }
    DeltaUpdates u;
    u["skipTags"] = tags.with_at(a, mine);
    return u;
  };
  d.modified.push_back(std::move(bl));

  // Safety of the skip optimization: a skip-tagged instance can only ever
  // choose the no-op (so executing it early is safe).
  d.new_invariants.push_back(Invariant{
      "NoSkippedValueChosen",
      [sc](const Spec& s_, const State& s) {
        const Value& tags = s_.get(s, "skipTags");
        for (int a = 0; a < sc.acceptors; ++a) {
          for (int i = 0; i < sc.indexes; ++i) {
            if (!tags.at(static_cast<size_t>(a)).at(static_cast<size_t>(i))
                     .as_bool()) {
              continue;
            }
            for (int b = 1; b <= sc.ballots; ++b) {
              for (const Value& v : sc.values) {
                if (v == mencius_noop()) continue;
                if (detail::chosen_at(s_, s, sc, i, b, v)) return false;
              }
            }
          }
        }
        return true;
      }});
  d.new_invariants.push_back(Invariant{
      "ExecutableAreNoops",
      [sc](const Spec& s_, const State& s) {
        for (int a = 0; a < sc.acceptors; ++a) {
          for (const Value& e :
               s_.get(s, "executable").at(static_cast<size_t>(a)).as_set()) {
            if (!(e.at(1) == mencius_noop())) return false;
          }
        }
        return true;
      }});
  return d;
}

}  // namespace praft::specs
