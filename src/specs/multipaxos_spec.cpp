#include "specs/multipaxos_spec.h"

#include <algorithm>

#include "common/check.h"

namespace praft::specs {

using spec::Action;
using spec::Domain;
using spec::Invariant;
using spec::Spec;
using spec::State;
using spec::V;
using spec::Value;
using spec::VT;

using detail::acceptor_domain;
using detail::ballot_domain;
using detail::index_domain;
using detail::mask_domain;
using detail::per_acceptor;
using detail::per_index;

namespace detail {

Domain acceptor_domain(const ConsensusScope& sc) {
  Domain d;
  for (int a = 0; a < sc.acceptors; ++a) d.push_back(V(a));
  return d;
}
Domain ballot_domain(const ConsensusScope& sc) {
  Domain d;
  for (int b = 1; b <= sc.ballots; ++b) d.push_back(V(b));
  return d;
}
Domain index_domain(const ConsensusScope& sc) {
  Domain d;
  for (int i = 0; i < sc.indexes; ++i) d.push_back(V(i));
  return d;
}
Domain mask_domain(const ConsensusScope& sc) {
  Domain d;
  for (int m = 1; m < (1 << sc.acceptors); ++m) d.push_back(V(m));
  return d;
}

Value per_acceptor(const ConsensusScope& sc, const Value& cell) {
  Value::Tuple t(static_cast<size_t>(sc.acceptors), cell);
  return Value::tuple(std::move(t));
}
Value per_index(const ConsensusScope& sc, const Value& cell) {
  Value::Tuple t(static_cast<size_t>(sc.indexes), cell);
  return Value::tuple(std::move(t));
}

Value empty_entry() { return VT(V(-1), Value::none()); }

Value highest_ballot_entry(const std::vector<Value>& logs, size_t index) {
  Value best = empty_entry();
  for (const Value& log : logs) {
    const Value& e = log.at(index);
    if (e.at(0).as_int() > best.at(0).as_int()) best = e;
  }
  return best;
}

bool chosen_at(const Spec& sp, const State& s, const ConsensusScope& scope,
               int index, int64_t bal, const Value& val) {
  const Value vote = VT(V(bal), val);
  int count = 0;
  const Value& votes = sp.get(s, "votes");
  for (int a = 0; a < scope.acceptors; ++a) {
    const Value& va = votes.at(static_cast<size_t>(a))
                          .at(static_cast<size_t>(index));
    if (va.contains(vote)) ++count;
  }
  return count >= scope.majority();
}

}  // namespace detail

std::unique_ptr<Spec> make_multipaxos_spec(const ConsensusScope& scope) {
  auto spec_ptr = std::make_unique<Spec>("MultiPaxos");
  Spec& sp = *spec_ptr;
  ConsensusScope sc = scope;
  if (sc.values.empty()) sc.values = {V(1)};

  sp.declare_var("highestBallot");  // tuple[acceptor] int
  sp.declare_var("isLeader");       // tuple[acceptor] bool
  sp.declare_var("logTail");        // tuple[acceptor] int
  sp.declare_var("votes");          // tuple[acceptor][index] set<<<bal,val>>>
  sp.declare_var("logs");           // tuple[acceptor][index] <<bal,val>>
  sp.declare_var("proposedValues"); // set <<i, b, v>>
  sp.declare_var("msgs1a");         // set <<acc, bal>>
  sp.declare_var("msgs1b");         // set <<acc, bal, log, logTail>>

  {
    State init;
    init.push_back(per_acceptor(sc, V(0)));
    init.push_back(per_acceptor(sc, V(false)));
    init.push_back(per_acceptor(sc, V(-1)));
    init.push_back(per_acceptor(sc, per_index(sc, Value::set({}))));
    init.push_back(per_acceptor(sc, per_index(sc, detail::empty_entry())));
    init.push_back(Value::set({}));
    init.push_back(Value::set({}));
    init.push_back(Value::set({}));
    sp.add_init(std::move(init));
  }

  const Domain accs = acceptor_domain(sc);
  const Domain bals = ballot_domain(sc);
  const Domain idxs = index_domain(sc);
  const Domain masks = mask_domain(sc);
  const Domain vals = sc.values;

  // IncreaseHighestBallot(a, b): a learns of (promises) a higher ballot.
  sp.add_action(Action{
      "IncreaseHighestBallot",
      {accs, bals},
      [](const Spec& s_, const State& s, const std::vector<Value>& p)
          -> std::optional<State> {
        const auto a = static_cast<size_t>(p[0].as_int());
        if (s_.get(s, "highestBallot").at(a).as_int() >= p[1].as_int()) {
          return std::nullopt;
        }
        State n = s;
        s_.set(n, "highestBallot",
               s_.get(s, "highestBallot").with_at(a, p[1]));
        s_.set(n, "isLeader", s_.get(s, "isLeader").with_at(a, V(false)));
        return n;
      }});

  // Phase1a(a): broadcast prepare at the currently-promised (owned) ballot.
  sp.add_action(Action{
      "Phase1a",
      {accs},
      [sc](const Spec& s_, const State& s, const std::vector<Value>& p)
          -> std::optional<State> {
        const auto a = static_cast<size_t>(p[0].as_int());
        if (s_.get(s, "isLeader").at(a).as_bool()) return std::nullopt;
        const int64_t b = s_.get(s, "highestBallot").at(a).as_int();
        if (b < 1 || sc.ballot_owner(b) != static_cast<int>(a)) {
          return std::nullopt;  // proposer-unique ballots
        }
        State n = s;
        s_.set(n, "msgs1a", s_.get(s, "msgs1a").with_added(VT(p[0], V(b))));
        return n;
      }});

  // Phase1b(a, sender, bal): promise and report accepted values.
  sp.add_action(Action{
      "Phase1b",
      {accs, accs, bals},
      [](const Spec& s_, const State& s, const std::vector<Value>& p)
          -> std::optional<State> {
        const auto a = static_cast<size_t>(p[0].as_int());
        if (!s_.get(s, "msgs1a").contains(VT(p[1], p[2]))) return std::nullopt;
        if (p[2].as_int() <= s_.get(s, "highestBallot").at(a).as_int()) {
          return std::nullopt;
        }
        State n = s;
        s_.set(n, "highestBallot", s_.get(s, "highestBallot").with_at(a, p[2]));
        s_.set(n, "isLeader", s_.get(s, "isLeader").with_at(a, V(false)));
        s_.set(n, "msgs1b",
               s_.get(s, "msgs1b")
                   .with_added(VT(p[0], p[2], s_.get(s, "logs").at(a),
                                  s_.get(s, "logTail").at(a))));
        return n;
      }});

  // BecomeLeader(a, mask): with 1b messages at hb[a] from `mask` (plus the
  // candidate's own log — its implicit self-promise), adopt the safe
  // (highest-ballot) value per instance and lead.
  sp.add_action(Action{
      "BecomeLeader",
      {accs, masks},
      [sc](const Spec& s_, const State& s, const std::vector<Value>& p)
          -> std::optional<State> {
        const auto a = static_cast<size_t>(p[0].as_int());
        const int mask = static_cast<int>(p[1].as_int());
        if (s_.get(s, "isLeader").at(a).as_bool()) return std::nullopt;
        const int64_t b = s_.get(s, "highestBallot").at(a).as_int();
        if (b < 1 || sc.ballot_owner(b) != static_cast<int>(a)) {
          return std::nullopt;
        }
        // Gather the quorum: candidate + responders in mask.
        int quorum = 1;
        std::vector<Value> logs_in = {s_.get(s, "logs").at(a)};
        int64_t max_tail = s_.get(s, "logTail").at(a).as_int();
        for (int x = 0; x < sc.acceptors; ++x) {
          if (x == static_cast<int>(a) || (mask & (1 << x)) == 0) continue;
          // Find x's 1b message at ballot b (unique per (acc, ballot)).
          const Value* found = nullptr;
          for (const Value& m : s_.get(s, "msgs1b").as_set()) {
            if (m.at(0).as_int() == x && m.at(1).as_int() == b) found = &m;
          }
          if (found == nullptr) return std::nullopt;
          logs_in.push_back(found->at(2));
          max_tail = std::max(max_tail, found->at(3).as_int());
          ++quorum;
        }
        if (quorum < sc.majority()) return std::nullopt;
        State n = s;
        Value mylog = s_.get(s, "logs").at(a);
        for (int i = 0; i < sc.indexes; ++i) {
          if (static_cast<int64_t>(i) > max_tail) break;
          mylog = mylog.with_at(
              static_cast<size_t>(i),
              detail::highest_ballot_entry(logs_in, static_cast<size_t>(i)));
        }
        s_.set(n, "logs", s_.get(s, "logs").with_at(a, mylog));
        if (max_tail > s_.get(s, "logTail").at(a).as_int()) {
          s_.set(n, "logTail", s_.get(s, "logTail").with_at(a, V(max_tail)));
        }
        s_.set(n, "isLeader", s_.get(s, "isLeader").with_at(a, V(true)));
        return n;
      }});

  // Propose(a, i, v) — Phase2a: the leader proposes v for instance i.
  sp.add_action(Action{
      "Propose",
      {accs, idxs, vals},
      [](const Spec& s_, const State& s, const std::vector<Value>& p)
          -> std::optional<State> {
        const auto a = static_cast<size_t>(p[0].as_int());
        const auto i = static_cast<size_t>(p[1].as_int());
        if (!s_.get(s, "isLeader").at(a).as_bool()) return std::nullopt;
        const Value& cur = s_.get(s, "logs").at(a).at(i).at(1);
        if (!cur.is_none() && !(cur == p[2])) return std::nullopt;
        const int64_t b = s_.get(s, "highestBallot").at(a).as_int();
        // One value per (instance, ballot): the log alone is a stale guard
        // (the leader's own accept is a separate step), so also check what
        // this ballot already proposed.
        for (const Value& pv : s_.get(s, "proposedValues").as_set()) {
          if (pv.at(0) == p[1] && pv.at(1).as_int() == b &&
              !(pv.at(2) == p[2])) {
            return std::nullopt;
          }
        }
        State n = s;
        s_.set(n, "proposedValues",
               s_.get(s, "proposedValues").with_added(VT(p[1], V(b), p[2])));
        return n;
      }});

  // Accept(a, i, b, v) — Phase2b: accept a proposed value.
  sp.add_action(Action{
      "Accept",
      {accs, idxs, bals, vals},
      [](const Spec& s_, const State& s, const std::vector<Value>& p)
          -> std::optional<State> {
        const auto a = static_cast<size_t>(p[0].as_int());
        const auto i = static_cast<size_t>(p[1].as_int());
        if (!s_.get(s, "proposedValues").contains(VT(p[1], p[2], p[3]))) {
          return std::nullopt;
        }
        const int64_t hb = s_.get(s, "highestBallot").at(a).as_int();
        if (p[2].as_int() < hb) return std::nullopt;
        State n = s;
        s_.set(n, "highestBallot", s_.get(s, "highestBallot").with_at(a, p[2]));
        if (p[2].as_int() > hb) {
          s_.set(n, "isLeader", s_.get(s, "isLeader").with_at(a, V(false)));
        }
        const Value vote = VT(p[2], p[3]);
        Value votes_a = s_.get(s, "votes").at(a);
        votes_a = votes_a.with_at(i, votes_a.at(i).with_added(vote));
        s_.set(n, "votes", s_.get(s, "votes").with_at(a, votes_a));
        s_.set(n, "logs",
               s_.get(s, "logs").with_at(
                   a, s_.get(s, "logs").at(a).with_at(i, vote)));
        if (p[1].as_int() > s_.get(s, "logTail").at(a).as_int()) {
          s_.set(n, "logTail", s_.get(s, "logTail").with_at(a, p[1]));
        }
        return n;
      }});

  // --- Invariants ----------------------------------------------------------
  sp.add_invariant(Invariant{
      "Agreement",
      [sc](const Spec& s_, const State& s) {
        for (int i = 0; i < sc.indexes; ++i) {
          Value chosen = Value::none();
          for (int b = 1; b <= sc.ballots; ++b) {
            for (const Value& v : sc.values) {
              if (detail::chosen_at(s_, s, sc, i, b, v)) {
                if (!chosen.is_none() && !(chosen == v)) return false;
                chosen = v;
              }
            }
          }
        }
        return true;
      }});
  sp.add_invariant(Invariant{
      "OneValuePerBallot",
      [sc](const Spec& s_, const State& s) {
        // No two acceptors vote different values at the same (index, ballot).
        const Value& votes = s_.get(s, "votes");
        for (int i = 0; i < sc.indexes; ++i) {
          for (int b = 1; b <= sc.ballots; ++b) {
            Value seen = Value::none();
            for (int a = 0; a < sc.acceptors; ++a) {
              for (const Value& vote : votes.at(static_cast<size_t>(a))
                                           .at(static_cast<size_t>(i))
                                           .as_set()) {
                if (vote.at(0).as_int() != b) continue;
                if (!seen.is_none() && !(seen == vote.at(1))) return false;
                seen = vote.at(1);
              }
            }
          }
        }
        return true;
      }});

  return spec_ptr;
}

}  // namespace praft::specs
