#include "chaos/mutator.h"

#include <algorithm>
#include <charconv>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <set>
#include <sstream>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/check.h"
#include "consensus/registry.h"

namespace praft::chaos {

namespace {

/// Evolved schedules stay bounded: mutation can add events, but a run's
/// cost scales with its fault count, so coverage-per-run (the score) must
/// not be gamed by unbounded schedule growth.
constexpr size_t kMaxEvents = 12;

/// Upper bound on parsed event times (10 simulated minutes — far beyond
/// anything the generator or mutator emits). Without it a corrupted corpus
/// block can overflow the runner's `faults_end + sec(1)` deadline math into
/// a bogus instant green, or pre-register millions of sampler callbacks.
constexpr Time kMaxEventTime = sec(600);

std::string format(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

/// Parses all of `t` as a decimal integer in T's range.
template <typename T>
bool parse_num(const std::string& t, T* out) {
  const char* end = t.data() + t.size();
  const auto [stop, ec] = std::from_chars(t.data(), end, *out);
  return ec == std::errc() && stop == end;
}

bool parse_double_tok(const std::string& t, double* out) {
  if (t.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(t.c_str(), &end);
  return end != t.c_str() && *end == '\0';
}

/// The whitespace-separated tokens of `line` before any '#' comment.
std::vector<std::string> tokens_of(std::string line) {
  if (const size_t hash = line.find('#'); hash != std::string::npos) {
    line.resize(hash);
  }
  std::istringstream ls(line);
  std::vector<std::string> toks;
  for (std::string t; ls >> t;) toks.push_back(t);
  return toks;
}

/// One per-run flag: its name and the RunOptions field it sets. A bool field
/// is a bare flag; a number takes "=N" with N >= `min`. A flag prints only
/// when its field differs from RunOptions{}.
struct RunFlag {
  const char* name;
  std::variant<bool RunOptions::*, int RunOptions::*, size_t RunOptions::*,
               Duration RunOptions::*>
      field;
  int min = 0;
};

/// Printed in row order, the order saved run files already use.
constexpr RunFlag kRunFlags[] = {
    {"--compaction-cap", &RunOptions::compaction_log_cap},
    {"--restarts", &RunOptions::crash_restarts},
    {"--inject-quorum-bug", &RunOptions::inject_quorum_bug},
    {"--inject-persistence-bug", &RunOptions::inject_persistence_bug},
    {"--wan", &RunOptions::wan},
    {"--groups", &RunOptions::groups, 1},
    {"--replicas", &RunOptions::num_replicas, 2},
    {"--fsync", &RunOptions::fsync},  // microseconds
    {"--sync-batch", &RunOptions::sync_batch},
};

/// Re-establishes the generator postcondition after a mutation moved or
/// resized a window: length first (at least 50ms, at most the fault span),
/// then start, then end. Replica indices wrap into the cluster, since a
/// splice partner may run more replicas than the child.
FaultEvent clamped(FaultEvent e, const ScheduleLimits& lim) {
  if (e.a >= lim.num_replicas) e.a %= lim.num_replicas;
  if (e.b >= lim.num_replicas) e.b %= lim.num_replicas;
  const Time span = lim.faults_until - lim.faults_from;  // > 0 by CHECK
  Duration len = e.to - e.from;
  len = std::max<Duration>(len, msec(50));
  len = std::min<Duration>(len, span);
  e.from = std::max(e.from, lim.faults_from);
  e.from = std::min<Time>(e.from, lim.faults_until - len);
  e.to = e.from + len;
  return e;
}

/// Draws a fresh random event inside the limits (the kAddEvent / kSwapKind
/// field source; structured like the generator's die but kind-uniform, so
/// mutation explores kinds the seed expansion under-samples).
FaultEvent random_event(Rng& rng, const ScheduleLimits& lim) {
  FaultEvent e;
  const int n = lim.num_replicas;
  const Time span = lim.faults_until - lim.faults_from;
  e.from = lim.faults_from +
           static_cast<Time>(rng.below(static_cast<uint64_t>(span)));
  e.to = e.from + msec(200) +
         static_cast<Duration>(rng.below(static_cast<uint64_t>(sec(3))));
  const uint64_t faces = lim.crash_restart ? 8 : 7;
  switch (rng.below(faces)) {
    case 0:
      e.kind = FaultEvent::Kind::kDropBurst;
      e.p = 0.1 + rng.uniform() * (lim.max_burst_drop - 0.1);
      break;
    case 1:
      e.kind = FaultEvent::Kind::kPartitionPair;
      e.a = static_cast<int>(rng.below(static_cast<uint64_t>(n)));
      e.b = static_cast<int>(rng.below(static_cast<uint64_t>(n - 1)));
      if (e.b >= e.a) ++e.b;
      break;
    case 2:
      e.kind = FaultEvent::Kind::kIsolate;
      e.a = static_cast<int>(rng.below(static_cast<uint64_t>(n)));
      break;
    case 3:
      e.kind = FaultEvent::Kind::kCrash;
      e.a = static_cast<int>(rng.below(static_cast<uint64_t>(n)));
      break;
    case 4:
      e.kind = FaultEvent::Kind::kLeaderCrash;
      break;
    case 5:
      e.kind = FaultEvent::Kind::kLeaderIsolate;
      break;
    case 6:
      e.kind = FaultEvent::Kind::kLeaderMinority;
      break;
    default:
      e.kind = FaultEvent::Kind::kCrashRestart;
      e.a = static_cast<int>(rng.below(static_cast<uint64_t>(n)));
      // Short downtime, like the generator: the interesting races are
      // losing unsynced state and rejoining mid-election.
      e.to = e.from + msec(100) +
             static_cast<Duration>(rng.below(static_cast<uint64_t>(sec(2))));
      break;
  }
  return clamped(e, lim);
}

size_t pick_index(Rng& rng, size_t size) {
  PRAFT_CHECK(size > 0);
  return static_cast<size_t>(rng.below(static_cast<uint64_t>(size)));
}

}  // namespace

std::string serialize_schedule(const Schedule& s,
                               const std::string& header_extra) {
  std::string out = "schedule ";
  if (!header_extra.empty()) {
    out += header_extra;
    out += ' ';
  }
  out += "{\n";
  out += format("  seed %llu\n", static_cast<unsigned long long>(s.seed));
  // %.17g round-trips any finite double exactly through strtod, and
  // re-printing the parsed value reproduces the same text — so
  // serialize -> parse -> serialize is the identity the corpus needs.
  out += format("  drop %.17g\n", s.drop_rate);
  out += format("  dup %.17g\n", s.duplicate_rate);
  out += format("  reorder %.17g\n", s.reorder_rate);
  out += format("  clients %d\n", s.clients_per_region);
  out += format("  read_fraction %.17g\n", s.workload.read_fraction);
  out += format("  conflict_rate %.17g\n", s.workload.conflict_rate);
  out += format("  num_records %llu\n",
                static_cast<unsigned long long>(s.workload.num_records));
  out += format("  value_size %u\n", s.workload.value_size);
  out += format("  partitions %d\n", s.workload.num_partitions);
  for (const FaultEvent& e : s.events) {
    out += format("  event %s a=%d b=%d p=%.17g from=%lld to=%lld\n",
                  to_string(e.kind), e.a, e.b, e.p,
                  static_cast<long long>(e.from),
                  static_cast<long long>(e.to));
  }
  out += "}\n";
  return out;
}

bool parse_schedule(const std::vector<std::string>& lines, size_t* pos,
                    Schedule* out, std::string* header_extra,
                    std::string* error) {
  const auto fail = [error](const std::string& msg) {
    *error = msg;
    return false;
  };
  if (*pos >= lines.size()) return fail("no schedule block at end of input");
  const std::vector<std::string> header = tokens_of(lines[*pos]);
  if (header.empty() || header.front() != "schedule" ||
      header.back() != "{") {
    return fail("schedule block must open with 'schedule [extras] {'");
  }
  header_extra->clear();
  for (size_t i = 1; i + 1 < header.size(); ++i) {
    if (!header_extra->empty()) *header_extra += ' ';
    *header_extra += header[i];
  }

  Schedule s;
  bool closed = false;
  for (++*pos; *pos < lines.size(); ++*pos) {
    const std::vector<std::string> toks = tokens_of(lines[*pos]);
    if (toks.empty()) continue;
    if (toks[0] == "}") {
      closed = true;
      ++*pos;
      break;
    }
    if (toks[0] == "event") {
      if (toks.size() < 2) return fail("event line without a kind");
      FaultEvent e;
      if (!kind_from_string(toks[1], &e.kind)) {
        return fail("unknown fault kind '" + toks[1] + "'");
      }
      for (size_t i = 2; i < toks.size(); ++i) {
        const size_t eq = toks[i].find('=');
        if (eq == std::string::npos) {
          return fail("malformed event field '" + toks[i] + "'");
        }
        const std::string key = toks[i].substr(0, eq);
        const std::string val = toks[i].substr(eq + 1);
        bool ok = false;
        if (key == "a") {
          ok = parse_num(val, &e.a);
        } else if (key == "b") {
          ok = parse_num(val, &e.b);
        } else if (key == "p") {
          ok = parse_double_tok(val, &e.p);
        } else if (key == "from") {
          ok = parse_num(val, &e.from);
        } else if (key == "to") {
          ok = parse_num(val, &e.to);
        } else {
          return fail("unknown event field '" + key + "'");
        }
        if (!ok) return fail("bad value in event field '" + toks[i] + "'");
      }
      if (e.from < 0 || e.to <= e.from || e.to > kMaxEventTime) {
        return fail("event '" + toks[1] +
                    "' has an invalid window (need 0 <= from < to <= " +
                    std::to_string(kMaxEventTime) + "us)");
      }
      if (e.a < -1 || e.b < -1) {
        return fail("event '" + toks[1] + "' has a negative replica index");
      }
      s.events.push_back(e);
      continue;
    }
    if (toks.size() != 2) {
      return fail("expected 'key value' in schedule block, got '" + toks[0] +
                  "'");
    }
    const std::string& key = toks[0];
    const std::string& val = toks[1];
    bool ok = false;
    if (key == "seed") {
      ok = parse_num(val, &s.seed);
    } else if (key == "drop") {
      ok = parse_double_tok(val, &s.drop_rate);
    } else if (key == "dup") {
      ok = parse_double_tok(val, &s.duplicate_rate);
    } else if (key == "reorder") {
      ok = parse_double_tok(val, &s.reorder_rate);
    } else if (key == "clients") {
      ok = parse_num(val, &s.clients_per_region);
    } else if (key == "read_fraction") {
      ok = parse_double_tok(val, &s.workload.read_fraction);
    } else if (key == "conflict_rate") {
      ok = parse_double_tok(val, &s.workload.conflict_rate);
    } else if (key == "num_records") {
      ok = parse_num(val, &s.workload.num_records);
    } else if (key == "value_size") {
      ok = parse_num(val, &s.workload.value_size);
    } else if (key == "partitions") {
      ok = parse_num(val, &s.workload.num_partitions);
    } else {
      return fail("unknown schedule key '" + key + "'");
    }
    if (!ok) return fail("bad value for schedule key '" + key + "'");
  }
  if (!closed) return fail("schedule block never closed with '}'");
  if (s.events.empty()) return fail("schedule block has no events");
  *out = s;
  return true;
}

std::string run_flags(const RunOptions& opt) {
  static const RunOptions defaults;
  std::string out;
  for (const RunFlag& f : kRunFlags) {
    std::visit(
        [&](auto field) {
          if (opt.*field == defaults.*field) return;
          out += ' ';
          out += f.name;
          if constexpr (!std::is_same_v<decltype(field), bool RunOptions::*>) {
            out += '=' + std::to_string(opt.*field);
          }
        },
        f.field);
  }
  return out;
}

bool parse_run_flag(const std::string& token, RunOptions* opt,
                    std::string* error) {
  const size_t eq = token.find('=');
  const std::string name = token.substr(0, eq);
  const bool has_value = eq != std::string::npos;
  const std::string value = has_value ? token.substr(eq + 1) : "";
  for (const RunFlag& f : kRunFlags) {
    if (name != f.name) continue;
    const bool ok = std::visit(
        [&](auto field) {
          if constexpr (std::is_same_v<decltype(field), bool RunOptions::*>) {
            opt->*field = true;
            return !has_value;
          } else {
            auto n = opt->*field;
            if (!has_value || !parse_num(value, &n) ||
                std::cmp_less(n, f.min)) {
              return false;
            }
            opt->*field = n;
            return true;
          }
        },
        f.field);
    if (!ok) *error = "bad " + name + " value '" + value + "'";
    return ok;
  }
  *error = "unknown per-run flag '" + token + "'";
  return false;
}

std::string serialize_run(const RunOptions& run, const std::string& comment) {
  if (run.schedule.has_value()) {
    return (comment.empty() ? "" : "# " + comment + "\n") +
           serialize_schedule(*run.schedule, run.protocol + run_flags(run));
  }
  std::string line = run.protocol + ' ' + std::to_string(run.seed) +
                     run_flags(run);
  if (!comment.empty()) line += "  # " + comment;
  return line + '\n';
}

bool parse_runs(std::istream& in, const std::string& name,
                const RunOptions& base,
                const std::vector<std::string>& protocols,
                std::vector<RunOptions>* runs, std::string* error) {
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  const std::vector<std::string> known = consensus::protocol_names();
  const auto registered = [&known](const std::string& protocol) {
    return std::find(known.begin(), known.end(), protocol) != known.end();
  };
  for (size_t pos = 0; pos < lines.size();) {
    const std::string at = name + ':' + std::to_string(pos + 1) + ": ";
    const auto fail = [&](const std::string& what) {
      *error = at + what;
      return false;
    };
    std::vector<std::string> toks = tokens_of(lines[pos]);
    if (toks.empty()) {  // blank / comment-only line
      ++pos;
      continue;
    }
    RunOptions run = base;
    std::vector<std::string> names{toks[0]};  // protocols the entry runs
    size_t flags_from = 2;
    if (toks[0] == "schedule") {
      Schedule sched;
      std::string header;
      if (!parse_schedule(lines, &pos, &sched, &header, error)) {
        return fail(*error);
      }
      toks = tokens_of(header);
      if (toks.empty() || !registered(toks[0])) {
        return fail(
            "schedule block needs a registered protocol after 'schedule' "
            "(got '" + header + "')");
      }
      names = {toks[0]};
      run.seed = sched.seed;
      run.schedule = std::move(sched);
      flags_from = 1;
    } else if (registered(toks[0])) {
      if (toks.size() < 2 || !parse_num(toks[1], &run.seed)) {
        return fail("protocol '" + toks[0] + "' without a valid seed");
      }
      ++pos;
    } else if (parse_num(toks[0], &run.seed)) {
      names = protocols;  // a bare seed runs under the --protocol selection
      flags_from = 1;
      ++pos;
    } else {
      return fail("'" + toks[0] +
                  "' is neither a registered protocol nor a seed");
    }
    for (size_t i = flags_from; i < toks.size(); ++i) {
      std::string what;
      if (!parse_run_flag(toks[i], &run, &what)) return fail(what);
    }
    // An event naming a replica the cluster lacks would arm no fault: the
    // replay would run another schedule than the one saved.
    const std::vector<FaultEvent> none;
    for (const FaultEvent& e : run.schedule ? run.schedule->events : none) {
      if (std::max(e.a, e.b) >= run.num_replicas) {
        return fail("event targets replica " +
                    std::to_string(std::max(e.a, e.b)) +
                    " but the cluster has " +
                    std::to_string(run.num_replicas) +
                    " replicas (replay with a bigger --replicas)");
      }
    }
    for (const std::string& protocol : names) {
      run.protocol = protocol;
      runs->push_back(run);
    }
  }
  return true;
}

Schedule apply_mutation(const Schedule& s, MutationOp op, Rng& rng,
                        const ScheduleLimits& limits) {
  PRAFT_CHECK(limits.faults_until > limits.faults_from);
  PRAFT_CHECK(limits.num_replicas >= 2);
  Schedule m = s;
  if (m.events.empty()) m.events.push_back(random_event(rng, limits));
  switch (op) {
    case MutationOp::kShiftWindow: {
      FaultEvent& e = m.events[pick_index(rng, m.events.size())];
      const Duration delta = static_cast<Duration>(rng.range(-sec(2), sec(2)));
      e.from += delta;
      e.to += delta;
      e = clamped(e, limits);
      break;
    }
    case MutationOp::kStretchWindow: {
      FaultEvent& e = m.events[pick_index(rng, m.events.size())];
      const double factor = 0.5 + 1.5 * rng.uniform();
      e.to = e.from + static_cast<Duration>(
                          static_cast<double>(e.to - e.from) * factor);
      e = clamped(e, limits);
      break;
    }
    case MutationOp::kSplitWindow: {
      const size_t i = pick_index(rng, m.events.size());
      const FaultEvent orig = m.events[i];
      const Duration len = orig.to - orig.from;
      const Time mid =
          orig.from + static_cast<Duration>(
                          static_cast<double>(len) *
                          (0.3 + 0.4 * rng.uniform()));
      FaultEvent first = orig;
      first.to = mid;
      FaultEvent second = orig;
      second.from = mid + msec(100);  // a gap: heal, then fault again
      if (m.events.size() >= kMaxEvents) {
        m.events[i] = clamped(first, limits);
      } else {
        m.events[i] = clamped(first, limits);
        m.events.insert(m.events.begin() + static_cast<ptrdiff_t>(i) + 1,
                        clamped(second, limits));
      }
      break;
    }
    case MutationOp::kSwapKind: {
      const size_t i = pick_index(rng, m.events.size());
      const FaultEvent fresh = random_event(rng, limits);
      FaultEvent& e = m.events[i];
      e.kind = fresh.kind;
      e.a = fresh.a;
      e.b = fresh.b;
      e.p = fresh.p;
      e = clamped(e, limits);
      break;
    }
    case MutationOp::kRetargetReplica: {
      // Only node-targeted events carry a victim; if this schedule has
      // none, perturb the rates instead (still deterministic).
      std::vector<size_t> targeted;
      for (size_t i = 0; i < m.events.size(); ++i) {
        if (m.events[i].a >= 0) targeted.push_back(i);
      }
      if (targeted.empty()) {
        return apply_mutation(m, MutationOp::kPerturbRates, rng, limits);
      }
      const int n = limits.num_replicas;
      FaultEvent& e = m.events[targeted[pick_index(rng, targeted.size())]];
      e.a = static_cast<int>(rng.below(static_cast<uint64_t>(n)));
      if (e.kind == FaultEvent::Kind::kPartitionPair) {
        e.b = static_cast<int>(rng.below(static_cast<uint64_t>(n - 1)));
        if (e.b >= e.a) ++e.b;
      }
      break;
    }
    case MutationOp::kPerturbRates: {
      if (rng.chance(0.5)) m.drop_rate = rng.uniform() * limits.max_drop_rate;
      if (rng.chance(0.5)) {
        m.duplicate_rate = rng.uniform() * limits.max_duplicate_rate;
      }
      if (rng.chance(0.5)) {
        m.reorder_rate = rng.uniform() * limits.max_reorder_rate;
      }
      break;
    }
    case MutationOp::kPerturbWorkload: {
      if (rng.chance(0.5)) {
        m.workload.read_fraction = 0.3 + rng.uniform() * 0.6;
      }
      if (rng.chance(0.5)) m.workload.conflict_rate = rng.uniform() * 0.2;
      if (rng.chance(0.3)) {
        m.clients_per_region = static_cast<int>(rng.range(1, 2));
      }
      break;
    }
    case MutationOp::kAddEvent: {
      if (m.events.size() >= kMaxEvents) {
        return apply_mutation(m, MutationOp::kDropEvent, rng, limits);
      }
      m.events.push_back(random_event(rng, limits));
      break;
    }
    case MutationOp::kDropEvent: {
      if (m.events.size() <= 1) {
        return apply_mutation(m, MutationOp::kShiftWindow, rng, limits);
      }
      m.events.erase(m.events.begin() +
                     static_cast<ptrdiff_t>(pick_index(rng, m.events.size())));
      break;
    }
    case MutationOp::kReseed: {
      m.seed = rng.next();
      break;
    }
  }
  return m;
}

Schedule mutate_schedule(const Schedule& s, Rng& rng,
                         const ScheduleLimits& limits) {
  // Weighted operator die: window surgery dominates (that is where rare
  // interleavings live), reseed stays rare (it jumps the whole timing
  // stream — diversity injection, not refinement).
  struct Face {
    MutationOp op;
    uint64_t weight;
  };
  static constexpr Face kFaces[] = {
      {MutationOp::kShiftWindow, 3},     {MutationOp::kStretchWindow, 2},
      {MutationOp::kSplitWindow, 2},     {MutationOp::kSwapKind, 2},
      {MutationOp::kRetargetReplica, 2}, {MutationOp::kPerturbRates, 2},
      {MutationOp::kPerturbWorkload, 1}, {MutationOp::kAddEvent, 2},
      {MutationOp::kDropEvent, 1},       {MutationOp::kReseed, 1},
  };
  uint64_t total = 0;
  for (const Face& f : kFaces) total += f.weight;
  Schedule m = s;
  const int ops = 1 + (rng.chance(0.3) ? 1 : 0);
  for (int k = 0; k < ops; ++k) {
    uint64_t roll = rng.below(total);
    for (const Face& f : kFaces) {
      if (roll < f.weight) {
        m = apply_mutation(m, f.op, rng, limits);
        break;
      }
      roll -= f.weight;
    }
  }
  return m;
}

Schedule splice_schedules(const Schedule& a, const Schedule& b, Rng& rng,
                          const ScheduleLimits& limits) {
  PRAFT_CHECK(limits.faults_until > limits.faults_from);
  Schedule child = a;
  if (rng.chance(0.5)) child.seed = b.seed;
  if (rng.chance(0.5)) child.drop_rate = b.drop_rate;
  if (rng.chance(0.5)) child.duplicate_rate = b.duplicate_rate;
  if (rng.chance(0.5)) child.reorder_rate = b.reorder_rate;
  if (rng.chance(0.5)) child.workload = b.workload;
  if (rng.chance(0.5)) child.clients_per_region = b.clients_per_region;
  child.events.clear();
  for (const FaultEvent& e : a.events) {
    if (rng.chance(0.6)) child.events.push_back(clamped(e, limits));
  }
  for (const FaultEvent& e : b.events) {
    if (rng.chance(0.4)) child.events.push_back(clamped(e, limits));
  }
  if (child.events.empty()) {
    const Schedule& donor = a.events.empty() ? b : a;
    if (donor.events.empty()) {
      child.events.push_back(random_event(rng, limits));
    } else {
      child.events.push_back(clamped(donor.events.front(), limits));
    }
  }
  if (child.events.size() > kMaxEvents) child.events.resize(kMaxEvents);
  // Events interleave chronologically in the simulator anyway; keep them
  // sorted by window start so spliced schedules read (and dedupe) sanely.
  std::stable_sort(child.events.begin(), child.events.end(),
                   [](const FaultEvent& x, const FaultEvent& y) {
                     return x.from < y.from;
                   });
  return child;
}

namespace {

std::string candidate_key(const EvolveCandidate& c) {
  return serialize_run(c.run);
}

/// `run` pinned to the explicit schedule `s`, whose seed seeds the run.
EvolveCandidate candidate(RunOptions run, Schedule s) {
  EvolveCandidate c;
  c.run = std::move(run);
  c.run.seed = s.seed;
  c.run.schedule = std::move(s);
  return c;
}

/// Top-k selection stratified by protocol: round-robin over each protocol's
/// own score-desc ranking (protocols ordered by their best candidate).
/// Raw coverage scores are not comparable across protocols — Mencius
/// revocations alone would monopolize a flat top-k under --protocol=all —
/// while the paper's parallelism claim is exactly that one protocol's rare
/// interleavings are worth keeping for the others. `archive` must already
/// be score-desc; returns up to k archive indices.
std::vector<size_t> select_population(
    const std::vector<EvolveCandidate>& archive, size_t k) {
  std::vector<std::string> order;  // protocols by best-candidate rank
  std::vector<std::vector<size_t>> groups;
  for (size_t i = 0; i < archive.size(); ++i) {
    size_t g = 0;
    while (g < order.size() && order[g] != archive[i].run.protocol) ++g;
    if (g == order.size()) {
      order.push_back(archive[i].run.protocol);
      groups.emplace_back();
    }
    groups[g].push_back(i);
  }
  std::vector<size_t> out;
  const size_t want = std::min(k, archive.size());
  for (size_t round = 0; out.size() < want; ++round) {
    for (size_t g = 0; g < groups.size() && out.size() < want; ++g) {
      if (round < groups[g].size()) out.push_back(groups[g][round]);
    }
  }
  return out;
}

double mean_of(const std::vector<EvolveCandidate>& archive,
               const std::vector<size_t>& picks) {
  if (picks.empty()) return 0.0;
  uint64_t sum = 0;
  for (const size_t i : picks) sum += archive[i].score;
  return static_cast<double>(sum) / static_cast<double>(picks.size());
}

}  // namespace

EvolveStats evolve(const EvolveOptions& opt,
                   std::vector<EvolveCandidate> seeds) {
  PRAFT_CHECK(opt.generations >= 1);
  PRAFT_CHECK(opt.population >= 2);
  PRAFT_CHECK(opt.elite >= 1 && opt.elite < opt.population);
  PRAFT_CHECK(!opt.protocols.empty());
  const size_t population = static_cast<size_t>(opt.population);
  // Decorrelated from both the schedule-expansion RNG and the cluster RNG;
  // fixed so evolution is a pure function of (opt, seeds).
  Rng rng(opt.rng_seed ^ 0x5eedf00dcafe17ULL);

  EvolveStats stats;
  std::vector<EvolveCandidate> archive;  // score-desc, deduped
  std::set<std::string> seen;

  const auto evaluate = [&](EvolveCandidate cand) {
    const RunResult r = run_one(cand.run);
    ++stats.runs;
    if (!r.ok) {
      stats.failures.push_back(r);
      stats.failed_candidates.push_back(std::move(cand));
      return;
    }
    cand.score = coverage_score(r);
    if (seen.insert(candidate_key(cand)).second) {
      archive.push_back(std::move(cand));
    }
  };
  const auto resort = [&archive] {
    std::stable_sort(archive.begin(), archive.end(),
                     [](const EvolveCandidate& x, const EvolveCandidate& y) {
                       return x.score > y.score;
                     });
  };

  // Generation 0: the replayed corpus — ALL of it, a corpus bigger than the
  // population must not silently lose its tail — plus fresh random
  // schedules up to the population size.
  for (EvolveCandidate& seed : seeds) {
    Schedule sched = schedule_of(seed.run);
    evaluate(candidate(std::move(seed.run), std::move(sched)));
  }
  const ScheduleLimits base_limits = effective_limits(opt.base);
  for (size_t i = seeds.size(); i < population; ++i) {
    RunOptions run = opt.base;
    run.protocol = opt.protocols[pick_index(rng, opt.protocols.size())];
    evaluate(candidate(std::move(run),
                       generate_schedule(rng.next(), base_limits)));
  }
  resort();
  stats.generation_mean.push_back(
      mean_of(archive, select_population(archive, population)));

  for (int gen = 1; gen <= opt.generations && !archive.empty(); ++gen) {
    const std::vector<size_t> elites =
        select_population(archive, static_cast<size_t>(opt.elite));
    const size_t offspring = population - static_cast<size_t>(opt.elite);
    for (size_t k = 0; k < offspring; ++k) {
      const size_t pi = elites[pick_index(rng, elites.size())];
      const RunOptions& parent = archive[pi].run;
      const ScheduleLimits limits = effective_limits(parent);
      Schedule child;
      if (elites.size() >= 2 && rng.chance(0.3)) {
        size_t qi = pick_index(rng, elites.size() - 1);
        if (elites[qi] == pi) ++qi;
        child = splice_schedules(*parent.schedule,
                                 *archive[elites[qi]].run.schedule, rng,
                                 limits);
      } else {
        child = mutate_schedule(*parent.schedule, rng, limits);
      }
      // Rare cross-protocol hop: the paper's parallelism claim says a rare
      // interleaving found under one protocol stresses the others too.
      RunOptions run = parent;
      if (opt.protocols.size() >= 2 && rng.chance(0.15)) {
        run.protocol = opt.protocols[pick_index(rng, opt.protocols.size())];
      }
      evaluate(candidate(std::move(run), std::move(child)));
    }
    resort();
    stats.generation_mean.push_back(
        mean_of(archive, select_population(archive, population)));
  }

  std::vector<EvolveCandidate> final_pop;
  for (const size_t i : select_population(archive, population)) {
    final_pop.push_back(archive[i]);
  }
  std::stable_sort(final_pop.begin(), final_pop.end(),
                   [](const EvolveCandidate& x, const EvolveCandidate& y) {
                     return x.score > y.score;
                   });
  stats.population = std::move(final_pop);
  std::vector<size_t> all(stats.population.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  stats.mean_score = mean_of(stats.population, all);
  stats.best_score =
      stats.population.empty() ? 0 : stats.population.front().score;
  return stats;
}

}  // namespace praft::chaos
