#include "specs/raftstar_spec.h"

#include <algorithm>

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

namespace {

/// logs[a] in Paxos terms: i-th entry = <<logBallot[a][i], raftlogs[a][i].val>>.
Value mapped_log(const Spec& sp, const State& s, size_t a, int indexes) {
  const Value& rl = sp.get(s, "raftlogs").at(a);
  const Value& lb = sp.get(s, "logBallot").at(a);
  Value::Tuple t;
  for (int i = 0; i < indexes; ++i) {
    t.push_back(VT(lb.at(static_cast<size_t>(i)),
                   rl.at(static_cast<size_t>(i)).at(1)));
  }
  return Value::tuple(std::move(t));
}

}  // namespace

std::unique_ptr<RaftStarBundle> make_raftstar_bundle(
    const ConsensusScope& scope) {
  auto bundle = std::make_unique<RaftStarBundle>();
  bundle->scope = scope;
  if (bundle->scope.values.empty()) bundle->scope.values = {V(1)};
  const ConsensusScope sc = bundle->scope;

  bundle->paxos = make_multipaxos_spec(sc);

  bundle->raftstar = std::make_unique<Spec>("RaftStar");
  Spec& sp = *bundle->raftstar;

  sp.declare_var("highestBallot");    // currentTerm, tuple[acceptor] int
  sp.declare_var("isLeader");         // tuple[acceptor] bool
  sp.declare_var("lastIndex");        // tuple[acceptor] int
  sp.declare_var("logTail");          // tuple[acceptor] int
  sp.declare_var("votes");            // as in MultiPaxos (auxiliary)
  sp.declare_var("raftlogs");         // tuple[acceptor][index] <<term, val>>
  sp.declare_var("logBallot");        // tuple[acceptor][index] int
  sp.declare_var("proposedEntries");  // set <<term, lIndex, entries>>
  sp.declare_var("proposedValues");   // set <<i, b, v>> (mirror of Paxos)
  sp.declare_var("r1amsgs");          // set <<acc, bal, lastTerm, lastIndex>>
  sp.declare_var("r1bmsgs");          // set <<acc, bal, log, logTail>>

  {
    State init;
    init.push_back(per_acceptor(sc, V(0)));
    init.push_back(per_acceptor(sc, V(false)));
    init.push_back(per_acceptor(sc, V(-1)));
    init.push_back(per_acceptor(sc, V(-1)));
    init.push_back(per_acceptor(sc, per_index(sc, Value::set({}))));
    init.push_back(per_acceptor(sc, per_index(sc, VT(V(-1), Value::none()))));
    init.push_back(per_acceptor(sc, per_index(sc, V(-1))));
    init.push_back(Value::set({}));
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

  // Phase1a — RequestVote: like Paxos' prepare but the message also carries
  // lastTerm/lastIndex for the up-to-date check.
  sp.add_action(Action{
      "Phase1a",
      {accs},
      [sc](const Spec& s_, const State& s, const std::vector<Value>& p)
          -> std::optional<State> {
        const auto a = static_cast<size_t>(p[0].as_int());
        if (s_.get(s, "isLeader").at(a).as_bool()) return std::nullopt;
        const int64_t b = s_.get(s, "highestBallot").at(a).as_int();
        if (b < 1 || sc.ballot_owner(b) != static_cast<int>(a)) {
          return std::nullopt;
        }
        const int64_t li = s_.get(s, "lastIndex").at(a).as_int();
        const int64_t lt =
            li < 0 ? -1
                   : s_.get(s, "raftlogs").at(a).at(static_cast<size_t>(li))
                         .at(0).as_int();
        State n = s;
        s_.set(n, "r1amsgs",
               s_.get(s, "r1amsgs").with_added(VT(p[0], V(b), V(lt), V(li))));
        return n;
      }});

  // Phase1b — ReceiveVote: the Raft* twist is the reply ships the voter's
  // WHOLE log (in Paxos <<bal,val>> form), i.e. including extra entries
  // beyond the candidate's lastIndex (paper §3, difference #1).
  sp.add_action(Action{
      "Phase1b",
      {accs, accs, bals},
      [sc](const Spec& s_, const State& s, const std::vector<Value>& p)
          -> std::optional<State> {
        const auto a = static_cast<size_t>(p[0].as_int());
        // Find the RequestVote from `sender` at `bal`.
        const Value* rv = nullptr;
        for (const Value& m : s_.get(s, "r1amsgs").as_set()) {
          if (m.at(0) == p[1] && m.at(1) == p[2]) rv = &m;
        }
        if (rv == nullptr) return std::nullopt;
        if (p[2].as_int() <= s_.get(s, "highestBallot").at(a).as_int()) {
          return std::nullopt;
        }
        // Up-to-date check (Fig. 2a lines 8-11 / B.2 Phase1b).
        const int64_t my_li = s_.get(s, "lastIndex").at(a).as_int();
        if (my_li >= 0) {
          const int64_t my_lt = s_.get(s, "raftlogs").at(a)
                                    .at(static_cast<size_t>(my_li))
                                    .at(0).as_int();
          const int64_t c_lt = rv->at(2).as_int();
          const int64_t c_li = rv->at(3).as_int();
          const bool ok = my_lt < c_lt || (my_lt == c_lt && my_li <= c_li);
          if (!ok) return std::nullopt;
        }
        State n = s;
        s_.set(n, "highestBallot", s_.get(s, "highestBallot").with_at(a, p[2]));
        s_.set(n, "isLeader", s_.get(s, "isLeader").with_at(a, V(false)));
        s_.set(n, "r1bmsgs",
               s_.get(s, "r1bmsgs")
                   .with_added(VT(p[0], p[2], mapped_log(s_, s, a, sc.indexes),
                                  s_.get(s, "logTail").at(a))));
        return n;
      }});

  // BecomeLeader: adopt safe values for entries past our lastIndex from the
  // voters' extra entries (B.2 BecomeLeader + UpdateLog).
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
        int quorum = 1;
        std::vector<Value> logs_in = {mapped_log(s_, s, a, sc.indexes)};
        int64_t max_tail = s_.get(s, "logTail").at(a).as_int();
        for (int x = 0; x < sc.acceptors; ++x) {
          if (x == static_cast<int>(a) || (mask & (1 << x)) == 0) continue;
          const Value* found = nullptr;
          for (const Value& m : s_.get(s, "r1bmsgs").as_set()) {
            if (m.at(0).as_int() == x && m.at(1).as_int() == b) found = &m;
          }
          if (found == nullptr) return std::nullopt;
          logs_in.push_back(found->at(2));
          max_tail = std::max(max_tail, found->at(3).as_int());
          ++quorum;
        }
        if (quorum < sc.majority()) return std::nullopt;
        State n = s;
        // Adopt the highest-ballot entry for every instance (UpdateLog).
        Value rl = s_.get(s, "raftlogs").at(a);
        Value lb = s_.get(s, "logBallot").at(a);
        const int64_t my_last = s_.get(s, "lastIndex").at(a).as_int();
        for (int i = 0; i < sc.indexes; ++i) {
          if (static_cast<int64_t>(i) > max_tail) break;
          if (static_cast<int64_t>(i) <= my_last) continue;  // keep own prefix
          const Value safe =
              detail::highest_ballot_entry(logs_in, static_cast<size_t>(i));
          rl = rl.with_at(static_cast<size_t>(i), VT(V(-1), safe.at(1)));
          lb = lb.with_at(static_cast<size_t>(i), safe.at(0));
        }
        s_.set(n, "raftlogs", s_.get(s, "raftlogs").with_at(a, rl));
        s_.set(n, "logBallot", s_.get(s, "logBallot").with_at(a, lb));
        if (max_tail > s_.get(s, "logTail").at(a).as_int()) {
          s_.set(n, "logTail", s_.get(s, "logTail").with_at(a, V(max_tail)));
        }
        s_.set(n, "isLeader", s_.get(s, "isLeader").with_at(a, V(true)));
        return n;
      }});

  // ProposeEntries — AppendEntries, leader side: propose value v at the next
  // free index with FULL coverage from 0, and mirror Paxos' Phase2a by
  // adding <<j, term, val_j>> to proposedValues for every covered j.
  sp.add_action(Action{
      "ProposeEntries",
      {accs, idxs, vals},
      [sc](const Spec& s_, const State& s, const std::vector<Value>& p)
          -> std::optional<State> {
        const auto a = static_cast<size_t>(p[0].as_int());
        const int64_t i = p[1].as_int();
        if (!s_.get(s, "isLeader").at(a).as_bool()) return std::nullopt;
        if (i != s_.get(s, "logTail").at(a).as_int() + 1) return std::nullopt;
        // One value per (index, ballot): same guard as Paxos' Propose.
        const Value& cur = s_.get(s, "raftlogs").at(a)
                               .at(static_cast<size_t>(i)).at(1);
        if (!cur.is_none() && !(cur == p[2])) return std::nullopt;
        const int64_t b = s_.get(s, "highestBallot").at(a).as_int();
        for (const Value& pv : s_.get(s, "proposedValues").as_set()) {
          if (pv.at(0).as_int() == i && pv.at(1).as_int() == b &&
              !(pv.at(2) == p[2])) {
            return std::nullopt;
          }
        }
        // entries[j] for j in 0..i (creation terms kept; value at i is new).
        Value::Tuple entries;
        for (int64_t j = 0; j < i; ++j) {
          entries.push_back(
              s_.get(s, "raftlogs").at(a).at(static_cast<size_t>(j)));
        }
        entries.push_back(VT(V(b), p[2]));
        State n = s;
        s_.set(n, "proposedEntries",
               s_.get(s, "proposedEntries")
                   .with_added(VT(V(b), V(i), Value::tuple(entries))));
        Value pv = s_.get(s, "proposedValues");
        for (int64_t j = 0; j <= i; ++j) {
          const Value vj = j == i
                               ? p[2]
                               : s_.get(s, "raftlogs").at(a)
                                     .at(static_cast<size_t>(j)).at(1);
          if (!vj.is_none()) pv = pv.with_added(VT(V(j), V(b), vj));
        }
        s_.set(n, "proposedValues", pv);
        return n;
      }});

  // AcceptEntries — (Receive)Append: replace the whole suffix, re-stamp the
  // ballot of every covered entry (difference #3), reject shorter coverage
  // (difference #2 — the guard lIndex >= lastIndex).
  sp.add_action(Action{
      "AcceptEntries",
      {accs, bals, idxs},
      [sc](const Spec& s_, const State& s, const std::vector<Value>& p)
          -> std::optional<State> {
        const auto a = static_cast<size_t>(p[0].as_int());
        const int64_t b = p[1].as_int();
        const int64_t li = p[2].as_int();
        const Value* pe = nullptr;
        for (const Value& m : s_.get(s, "proposedEntries").as_set()) {
          if (m.at(0).as_int() == b && m.at(1).as_int() == li) pe = &m;
        }
        if (pe == nullptr) return std::nullopt;
        const int64_t hb = s_.get(s, "highestBallot").at(a).as_int();
        if (b < hb) return std::nullopt;
        if (li < s_.get(s, "lastIndex").at(a).as_int()) return std::nullopt;
        State n = s;
        s_.set(n, "highestBallot", s_.get(s, "highestBallot").with_at(a, V(b)));
        if (b > hb) {
          s_.set(n, "isLeader", s_.get(s, "isLeader").with_at(a, V(false)));
        }
        Value rl = s_.get(s, "raftlogs").at(a);
        Value lb = s_.get(s, "logBallot").at(a);
        Value votes_a = s_.get(s, "votes").at(a);
        const Value& entries = pe->at(2);
        for (int64_t j = 0; j <= li; ++j) {
          const auto ji = static_cast<size_t>(j);
          rl = rl.with_at(ji, entries.at(ji));
          lb = lb.with_at(ji, V(b));
          const Value& vj = entries.at(ji).at(1);
          if (!vj.is_none()) {
            votes_a = votes_a.with_at(ji, votes_a.at(ji).with_added(VT(V(b), vj)));
          }
        }
        s_.set(n, "raftlogs", s_.get(s, "raftlogs").with_at(a, rl));
        s_.set(n, "logBallot", s_.get(s, "logBallot").with_at(a, lb));
        s_.set(n, "votes", s_.get(s, "votes").with_at(a, votes_a));
        if (li > s_.get(s, "lastIndex").at(a).as_int()) {
          s_.set(n, "lastIndex", s_.get(s, "lastIndex").with_at(a, V(li)));
        }
        if (li > s_.get(s, "logTail").at(a).as_int()) {
          s_.set(n, "logTail", s_.get(s, "logTail").with_at(a, V(li)));
        }
        return n;
      }});

  // --- Raft* invariants (Appendix B.2) -------------------------------------
  sp.add_invariant(Invariant{
      "LogBallotUniform",
      [sc](const Spec& s_, const State& s) {
        // LogBallotInv: covered entries share one ballot (what lets the
        // runtime collapse per-entry ballots into one watermark).
        for (int a = 0; a < sc.acceptors; ++a) {
          const int64_t li =
              s_.get(s, "lastIndex").at(static_cast<size_t>(a)).as_int();
          const Value& lb = s_.get(s, "logBallot").at(static_cast<size_t>(a));
          int64_t expect = -2;
          for (int64_t j = 0; j <= li; ++j) {
            const int64_t bj = lb.at(static_cast<size_t>(j)).as_int();
            if (expect == -2) expect = bj;
            if (bj != expect) return false;
          }
        }
        return true;
      }});

  // --- Fig. 3 refinement mapping -------------------------------------------
  bundle->f.from = bundle->raftstar.get();
  bundle->f.to = bundle->paxos.get();
  const Spec* mp = bundle->paxos.get();
  const ConsensusScope sc2 = sc;
  bundle->f.map_state = [mp, sc2](const Spec& rs, const State& s) {
    State out(mp->vars().size());
    mp->set(out, "highestBallot", rs.get(s, "highestBallot"));
    mp->set(out, "isLeader", rs.get(s, "isLeader"));
    mp->set(out, "logTail", rs.get(s, "logTail"));
    mp->set(out, "votes", rs.get(s, "votes"));
    // logs[a][i] = <<logBallot[a][i], raftlogs[a][i].val>>
    Value::Tuple logs;
    for (int a = 0; a < sc2.acceptors; ++a) {
      logs.push_back(mapped_log(rs, s, static_cast<size_t>(a), sc2.indexes));
    }
    mp->set(out, "logs", Value::tuple(std::move(logs)));
    mp->set(out, "proposedValues", rs.get(s, "proposedValues"));
    // requestVote -> prepare (drop lastTerm/lastIndex).
    Value::Set m1a;
    for (const Value& m : rs.get(s, "r1amsgs").as_set()) {
      m1a.push_back(VT(m.at(0), m.at(1)));
    }
    mp->set(out, "msgs1a", Value::set(std::move(m1a)));
    // requestVoteOK -> prepareOK (already in Paxos form).
    mp->set(out, "msgs1b", rs.get(s, "r1bmsgs"));
    return out;
  };

  // --- Fig. 3 function correspondence --------------------------------------
  auto& corr = bundle->corr;
  corr.entries.push_back({"IncreaseHighestBallot", "IncreaseHighestBallot",
                          nullptr});
  corr.entries.push_back({"Phase1a", "Phase1a", nullptr});
  corr.entries.push_back({"Phase1b", "Phase1b", nullptr});
  corr.entries.push_back({"BecomeLeader", "BecomeLeader", nullptr});
  corr.entries.push_back(
      {"ProposeEntries", "Propose", nullptr});  // params (a, i, v) align
  corr.entries.push_back(
      {"AcceptEntries", "Accept",
       // AcceptEntries(a, b, lIndex) implies Accept(a, i=lIndex, b, v) where
       // v is the accepted value at lIndex.
       [](const Spec& b_spec, const State& pre,
          const std::vector<Value>& p) -> std::vector<Value> {
         const int64_t bal = p[1].as_int();
         const int64_t li = p[2].as_int();
         Value v = Value::none();
         for (const Value& m : b_spec.get(pre, "proposedEntries").as_set()) {
           if (m.at(0).as_int() == bal && m.at(1).as_int() == li) {
             v = m.at(2).at(static_cast<size_t>(li)).at(1);
           }
         }
         return {p[0], V(li), p[1], v};
       }});

  return bundle;
}

}  // namespace praft::specs
