// praft_bench: the repository's benchmark. Runs five named workloads over
// the simulated deployments and prints, per workload, end-to-end metrics on
// two clocks (simulated client time, and the host CPU cost of our own code)
// and, with --trace, per-layer metrics from a separate traced pass.
//
//   praft_bench [--workload=a,b] [--seed=N] [--reps=N] [--seconds=S]
//               [--quick] [--trace] [--trace-out=PATH] [--json=PATH]
//
// Every repetition runs in its own forked child, so peak RSS and set-up time
// are per repetition and no state leaks between them. Sim-clock metrics come
// from repetition 1 and must repeat exactly in every other repetition and in
// the traced pass; host-clock metrics are the minimum over repetitions
// (set-up time and peak RSS: the median). Any failed check makes the exit
// status 1. See BENCHMARK.md for the metric definitions.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "json.h"
#include "stats.h"
#include "workloads.h"

using namespace praft;
using namespace praft::pbench;

namespace {

/// How a metric is reported. End-to-end metrics are what BENCHMARK.json
/// bounds; client metrics break them down by op class and are always
/// printed; layer metrics are printed with --trace.
enum class Tier { kEndToEnd, kClient, kLayer };

struct MetricInfo {
  const char* name;
  Tier tier;
};

// Print order.
constexpr MetricInfo kMetrics[] = {
    {"tput_ops_s", Tier::kEndToEnd},
    {"write_p50_ms", Tier::kEndToEnd},
    {"write_p99_ms", Tier::kEndToEnd},
    {"host_ns_per_op", Tier::kEndToEnd},
    {"setup_s", Tier::kEndToEnd},
    {"peak_rss_mb", Tier::kEndToEnd},
    {"ops_attempted", Tier::kClient},
    {"ops_failed", Tier::kClient},
    {"read_p50_ms", Tier::kClient},
    {"read_p99_ms", Tier::kClient},
    {"unavailable_ms", Tier::kClient},
    {"sim.events_per_op", Tier::kLayer},
    {"sim.host_ns_per_event", Tier::kLayer},
    {"sim.sched_step_ns", Tier::kLayer},
    {"net.msgs_per_op", Tier::kLayer},
    {"net.bytes_per_op", Tier::kLayer},
    {"net.entries_per_msg", Tier::kLayer},
    {"net.encode_ns", Tier::kLayer},
    {"net.decode_ns", Tier::kLayer},
    {"net.pool_high_water", Tier::kLayer},
    {"cpu.util_max", Tier::kLayer},
    {"cpu.util_min", Tier::kLayer},
    {"client.resends", Tier::kLayer},
    {"consensus.pipeline_rollbacks", Tier::kLayer},
    {"consensus.leader_changes", Tier::kLayer},
    {"mencius.revocations", Tier::kLayer},
    {"storage.fsyncs_per_op", Tier::kLayer},
    {"storage.disk_util", Tier::kLayer},
    {"storage.replayed_entries", Tier::kLayer},
    {"kv.apply_ns", Tier::kLayer},
    {"stage.order_p50_ms", Tier::kLayer},
    {"stage.order_p99_ms", Tier::kLayer},
    {"stage.reply_p50_ms", Tier::kLayer},
    {"stage.reply_p99_ms", Tier::kLayer},
    {"stage.replicate_lag_p50_ms", Tier::kLayer},
    {"stage.replicate_lag_p99_ms", Tier::kLayer},
    {"stage.local_read_frac", Tier::kLayer},
    {"trace.overhead_frac", Tier::kLayer},
};

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kEndToEnd: return "end_to_end";
    case Tier::kClient: return "client";
    case Tier::kLayer: return "per_layer";
  }
  return "?";
}

struct Args {
  std::vector<std::string> workloads;
  uint64_t seed = 1;
  int reps = 3;
  double seconds = 0;
  bool quick = false;
  bool trace = false;
  std::string trace_out;
  std::string json_path;
};

void usage(std::FILE* f) {
  std::fprintf(f,
               "usage: praft_bench [--workload=a,b] [--seed=N] [--reps=N] "
               "[--seconds=S]\n"
               "                   [--quick] [--trace] [--trace-out=PATH] "
               "[--json=PATH]\n"
               "workloads:");
  for (const Spec& s : all_specs()) std::fprintf(f, " %s", s.name);
  std::fprintf(f, "\n");
}

bool parse_uint(const char* s, uint64_t& out) {
  if (*s < '0' || *s > '9') return false;  // strtoull would accept "-1"
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  out = v;
  return true;
}

/// Returns false on a malformed command line.
bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
    };
    uint64_t u = 0;
    if (const char* v = value("--workload=")) {
      std::stringstream ss(v);
      std::string name;
      while (std::getline(ss, name, ',')) {
        if (!name.empty()) a.workloads.push_back(name);
      }
    } else if (const char* v = value("--seed=")) {
      if (!parse_uint(v, a.seed)) return false;
    } else if (const char* v = value("--reps=")) {
      if (!parse_uint(v, u) || u < 1 || u > 1000) return false;
      a.reps = static_cast<int>(u);
    } else if (const char* v = value("--seconds=")) {
      char* end = nullptr;
      a.seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(a.seconds >= 0)) return false;
    } else if (const char* v = value("--trace-out=")) {
      a.trace_out = v;
    } else if (const char* v = value("--json=")) {
      a.json_path = v;
    } else if (arg == "--quick") {
      a.quick = true;
    } else if (arg == "--trace") {
      a.trace = true;
    } else {
      return false;
    }
  }
  if (a.quick) a.reps = 1;
  return true;
}

// ---- one repetition in a forked child -------------------------------------

struct ChildResult {
  std::vector<Metric> metrics;
  std::vector<std::string> failures;
  std::vector<std::string> spans;
  uint64_t reply_hash = 0;
  double setup_s = 0;
  double rss_mb = 0;
};

std::string one_line(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\t') c = ' ';
  }
  return s;
}

std::string serialize(const RepOutput& r) {
  std::string out;
  for (const Metric& m : r.metrics) {
    out += "metric\t" + m.name + "\t" +
           (m.clock == Clock::kSim ? "sim" : "host") + "\t" +
           std::to_string(m.n) + "\t" + m.unit + "\t" +
           json_number(m.value) + "\n";
  }
  for (const std::string& f : r.failures) out += "fail\t" + one_line(f) + "\n";
  for (const std::string& s : r.spans) out += "span\t" + s + "\n";
  out += "hash\t" + std::to_string(r.reply_hash) + "\n";
  out += "setup_s\t" + json_number(r.setup_s) + "\n";
  return out;
}

ChildResult parse_child(const std::string& text) {
  ChildResult r;
  std::stringstream ss(text);
  std::string line;
  bool saw_end = false;
  while (std::getline(ss, line)) {
    std::vector<std::string> f;
    std::stringstream ls(line);
    std::string field;
    while (std::getline(ls, field, '\t')) f.push_back(field);
    if (f.empty()) continue;
    if (f[0] == "metric" && f.size() == 6) {
      r.metrics.push_back(Metric{f[1], std::strtod(f[5].c_str(), nullptr), f[4],
                                 std::strtoll(f[3].c_str(), nullptr, 10),
                                 f[2] == "sim" ? Clock::kSim : Clock::kHost});
    } else if (f[0] == "fail" && f.size() >= 2) {
      r.failures.push_back(f[1]);
    } else if (f[0] == "span" && f.size() >= 2) {
      r.spans.push_back(line.substr(5));
    } else if (f[0] == "hash" && f.size() == 2) {
      r.reply_hash = std::strtoull(f[1].c_str(), nullptr, 10);
    } else if (f[0] == "setup_s" && f.size() == 2) {
      r.setup_s = std::strtod(f[1].c_str(), nullptr);
      saw_end = true;
    }
  }
  if (!saw_end) r.failures.push_back("child produced no result");
  return r;
}

ChildResult run_child(const Spec& spec, const RepOptions& opt) {
  int fds[2];
  if (pipe(fds) != 0) {
    ChildResult r;
    r.failures.push_back(std::string("pipe: ") + std::strerror(errno));
    return r;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    ChildResult r;
    r.failures.push_back(std::string("fork: ") + std::strerror(errno));
    return r;
  }
  if (pid == 0) {
    close(fds[0]);
    const RepOutput out = run_rep(spec, opt);
    const std::string text = serialize(out);
    size_t off = 0;
    while (off < text.size()) {
      const ssize_t n = write(fds[1], text.data() + off, text.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) _exit(3);
      off += static_cast<size_t>(n);
    }
    close(fds[1]);
    _exit(out.failures.empty() ? 0 : 1);
  }
  close(fds[1]);
  std::string text;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  ChildResult r = parse_child(text);
  r.rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
  if (WIFSIGNALED(status)) {
    r.failures.push_back("child killed by signal " +
                         std::to_string(WTERMSIG(status)));
  } else if (WEXITSTATUS(status) != 0 && r.failures.empty()) {
    r.failures.push_back("child exited with status " +
                         std::to_string(WEXITSTATUS(status)));
  }
  return r;
}

// ---- aggregation ------------------------------------------------------------

const Metric* find(const std::vector<Metric>& ms, const std::string& name) {
  for (const Metric& m : ms) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

/// Sim metrics of `b` that differ from `a` (both must be a pure function of
/// workload and seed), described for the failure report.
std::vector<std::string> sim_differences(const ChildResult& a,
                                         const ChildResult& b,
                                         const std::string& what) {
  std::vector<std::string> out;
  for (const Metric& m : a.metrics) {
    if (m.clock != Clock::kSim) continue;
    const Metric* o = find(b.metrics, m.name);
    if (o != nullptr && o->value != m.value) {
      out.push_back(what + ": sim metric " + m.name + " = " +
                    json_number(o->value) +
                    ", repetition 1 = " + json_number(m.value));
    }
  }
  if (a.reply_hash != b.reply_hash) {
    out.push_back(what + ": reply stream differs from repetition 1");
  }
  return out;
}

struct WorkloadResult {
  std::string name;
  int reps = 0;
  std::vector<Metric> metrics;  // kMetrics order
  std::vector<std::string> failures;
  std::vector<std::string> spans;
};

WorkloadResult run_workload(const Spec& spec, const Args& args) {
  WorkloadResult res;
  res.name = spec.name;
  RepOptions opt;
  opt.seed = args.seed;
  opt.quick = args.quick;

  std::vector<ChildResult> reps;
  const int64_t start = wall_ns();
  int64_t last = 0;
  const auto budget_left = [&] {
    return args.seconds > 0 && reps.size() < 64 &&
           static_cast<double>(wall_ns() - start + last) / 1e9 <= args.seconds;
  };
  while (static_cast<int>(reps.size()) < args.reps || budget_left()) {
    const int64_t t = wall_ns();
    reps.push_back(run_child(spec, opt));
    last = wall_ns() - t;
    if (!reps.back().failures.empty()) break;
  }
  res.reps = static_cast<int>(reps.size());
  for (size_t k = 0; k < reps.size(); ++k) {
    for (const std::string& f : reps[k].failures) {
      res.failures.push_back("repetition " + std::to_string(k + 1) + ": " + f);
    }
    if (k > 0) {
      for (auto& d : sim_differences(reps[0], reps[k],
                                     "repetition " + std::to_string(k + 1))) {
        res.failures.push_back(d);
      }
    }
  }

  std::map<std::string, Metric> merged;
  for (const Metric& m : reps[0].metrics) {
    Metric v = m;
    if (m.clock == Clock::kHost) {
      for (const ChildResult& r : reps) {
        if (const Metric* o = find(r.metrics, m.name)) {
          v.value = std::min(v.value, o->value);
        }
      }
    }
    merged[m.name] = v;
  }
  std::vector<double> setup, rss;
  for (const ChildResult& r : reps) {
    setup.push_back(r.setup_s);
    rss.push_back(r.rss_mb);
  }
  merged["setup_s"] = Metric{"setup_s", median(setup), "s",
                             static_cast<int64_t>(reps.size()), Clock::kHost};
  merged["peak_rss_mb"] =
      Metric{"peak_rss_mb", median(rss), "MiB",
             static_cast<int64_t>(reps.size()), Clock::kHost};

  if (args.trace) {
    opt.trace = true;
    const ChildResult traced = run_child(spec, opt);
    for (const std::string& f : traced.failures) {
      res.failures.push_back("traced pass: " + f);
    }
    for (auto& d : sim_differences(reps[0], traced, "traced pass")) {
      res.failures.push_back(d);
    }
    for (const Metric& m : traced.metrics) {
      if (merged.count(m.name) == 0) merged[m.name] = m;
    }
    const Metric* on = find(traced.metrics, "host_ns_per_op");
    const Metric& off = merged["host_ns_per_op"];
    if (on != nullptr && off.value > 0) {
      merged["trace.overhead_frac"] =
          Metric{"trace.overhead_frac", on->value / off.value - 1.0, "frac", -1,
                 Clock::kHost};
    }
    res.spans = traced.spans;
  }

  for (const MetricInfo& info : kMetrics) {
    if (info.tier == Tier::kLayer && !args.trace) continue;
    const auto it = merged.find(info.name);
    if (it != merged.end()) res.metrics.push_back(it->second);
  }
  return res;
}

Tier tier_of(const std::string& name) {
  for (const MetricInfo& info : kMetrics) {
    if (name == info.name) return info.tier;
  }
  return Tier::kLayer;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      usage(stdout);
      return 0;
    }
  }
  Args args;
  if (!parse_args(argc, argv, args)) {
    usage(stderr);
    return 2;
  }
  std::vector<Spec> specs;
  const std::vector<Spec> all = all_specs();
  if (args.workloads.empty()) {
    specs = all;
  } else {
    for (const std::string& name : args.workloads) {
      bool found = false;
      for (const Spec& s : all) {
        if (name == s.name) {
          specs.push_back(s);
          found = true;
        }
      }
      if (!found) {
        std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
        usage(stderr);
        return 2;
      }
    }
  }

  std::vector<std::string> rows, failures, spans;
  for (const Spec& spec : specs) {
    const WorkloadResult r = run_workload(spec, args);
    for (const Metric& m : r.metrics) {
      std::printf("%s %s %.10g %s", r.name.c_str(), m.name.c_str(), m.value,
                  m.unit.c_str());
      if (m.n >= 0) std::printf(" n=%" PRId64, m.n);
      std::printf("\n");
      JsonObject row;
      row.str("workload", r.name)
          .str("metric", m.name)
          .num("value", m.value)
          .str("unit", m.unit)
          .str("clock", m.clock == Clock::kSim ? "sim" : "host")
          .str("tier", tier_name(tier_of(m.name)));
      if (m.n >= 0) row.integer("n", m.n);
      rows.push_back(row.text());
    }
    std::printf("%s reps %d\n", r.name.c_str(), r.reps);
    for (const std::string& f : r.failures) {
      std::printf("%s CHECK FAILED %s\n", r.name.c_str(), f.c_str());
      failures.push_back(json_string(r.name + ": " + f));
    }
    std::fflush(stdout);
    spans.insert(spans.end(), r.spans.begin(), r.spans.end());
  }

  bool ok = failures.empty();
  if (!args.json_path.empty()) {
    JsonObject doc;
    doc.str("bench", "praft_bench")
        .integer("schema_version", 1)
        .raw("seed", std::to_string(args.seed))
        .boolean("quick", args.quick)
        .boolean("ok", ok)
        .raw("failures", json_array(failures))
        .raw("rows", json_array(rows));
    ok = write_file(args.json_path, doc.text() + "\n") && ok;
  }
  if (!args.trace_out.empty()) {
    JsonObject doc;
    doc.raw("spans", json_array(spans, ",\n"));
    ok = write_file(args.trace_out, doc.text() + "\n") && ok;
  }
  std::printf("%s\n", failures.empty() ? "all checks passed" : "CHECKS FAILED");
  return ok ? 0 : 1;
}
