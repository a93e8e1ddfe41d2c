#pragma once

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "sim/resources.h"

namespace praft::bench {

/// Machine-readable benchmark output. Every fig binary accepts
/// `--json=<path>` (or bare `--json` for the default `BENCH_<name>.json`)
/// and then mirrors each printed figure as one JSON row — per-system
/// p50/p90/p99 latencies and throughputs — so perf trajectories can be
/// tracked across commits without scraping stdout.
///
/// File shape (schema_version 2 adds the seed + version stamp so bench
/// trajectories stay comparable across PRs — a row from an old file can be
/// rejected or migrated instead of silently compared):
///   {"bench": "fig9a", "schema_version": 2, "seed": 90001, "rows": [
///     {"system": "Raft", "class": "Leader", "metric": "latency",
///      "p50_ms": 69.1, "p90_ms": 71.0, "p99_ms": 75.2, "count": 123},
///     {"system": "Raft", "label": "clients=50", "metric": "throughput",
///      "ops_per_sec": 41230.0}]}
class JsonEmitter {
 public:
  /// `default_path`: pass non-empty to emit even without a --json flag
  /// (the catch-up bench always writes its BENCH_*.json).
  JsonEmitter(std::string bench, int argc, char** argv,
              std::string default_path = "")
      : bench_(std::move(bench)), path_(std::move(default_path)) {
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strncmp(a, "--json=", 7) == 0) {
        path_ = a + 7;
      } else if (std::strcmp(a, "--json") == 0) {
        path_ = "BENCH_" + bench_ + ".json";
      }
    }
  }

  [[nodiscard]] bool enabled() const { return !path_.empty(); }

  /// Stamps the emitted file with the simulation seed that produced it.
  void set_seed(uint64_t seed) {
    seed_ = seed;
    has_seed_ = true;
  }

  void add_latency(const std::string& system, const std::string& cls,
                   const harness::LatencySummary& s) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"system\": \"%s\", \"class\": \"%s\", "
                  "\"metric\": \"latency\", \"p50_ms\": %.3f, "
                  "\"p90_ms\": %.3f, \"p99_ms\": %.3f, \"count\": %lld}",
                  system.c_str(), cls.c_str(), to_ms(s.p50), to_ms(s.p90),
                  to_ms(s.p99), static_cast<long long>(s.count));
    rows_.push_back(buf);
  }

  void add_throughput(const std::string& system, const std::string& label,
                      double ops_per_sec) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"system\": \"%s\", \"label\": \"%s\", "
                  "\"metric\": \"throughput\", \"ops_per_sec\": %.1f}",
                  system.c_str(), label.c_str(), ops_per_sec);
    rows_.push_back(buf);
  }

  /// Free-form scalar (the catch-up bench reports latencies, resident log
  /// sizes and snapshot counts through this).
  void add_value(const std::string& system, const std::string& label,
                 const std::string& metric, double value) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"system\": \"%s\", \"label\": \"%s\", "
                  "\"metric\": \"%s\", \"value\": %.3f}",
                  system.c_str(), label.c_str(), metric.c_str(), value);
    rows_.push_back(buf);
  }

  /// Writes the collected rows. Returns false (with a message on stderr)
  /// when the path cannot be opened; no-op without --json.
  bool write() const {
    if (!enabled()) return true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "{\"bench\": \"%s\", \"schema_version\": %d",
                 bench_.c_str(), kSchemaVersion);
    if (has_seed_) {
      std::fprintf(f, ", \"seed\": %llu",
                   static_cast<unsigned long long>(seed_));
    }
    std::fprintf(f, ", \"rows\": [");
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "%s%s", i == 0 ? "\n  " : ",\n  ", rows_[i].c_str());
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu rows)\n", path_.c_str(), rows_.size());
    return true;
  }

 private:
  /// Bump when the row shape or header changes incompatibly. v2: header
  /// gained schema_version + seed.
  static constexpr int kSchemaVersion = 2;

  std::string bench_;
  std::string path_;
  std::vector<std::string> rows_;
  uint64_t seed_ = 0;
  bool has_seed_ = false;
};

inline void print_header(const std::string& title, const std::string& paper) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper.c_str());
  std::printf("==============================================================\n");
}

inline void print_latency_row(const char* system, const char* cls,
                              const harness::LatencySummary& s) {
  std::printf("%-14s %-10s  p50 %9.1f ms   p90 %9.1f ms   p99 %9.1f ms   (n=%lld)\n",
              system, cls, to_ms(s.p50), to_ms(s.p90), to_ms(s.p99),
              static_cast<long long>(s.count));
}

/// The Fig. 9 default workload: YCSB-like, 90% reads, 5% conflicts (§5.1).
inline kv::WorkloadConfig fig9_workload() {
  kv::WorkloadConfig wl;
  wl.read_fraction = 0.9;
  wl.conflict_rate = 0.05;
  wl.num_records = 100'000;
  wl.value_size = 8;
  return wl;
}

/// Per-site NIC egress of the Fig. 10b/d runs (`ClusterConfig::replica_egress`,
/// DESIGN.md §6): Oregon has the paper's 750 Mbps; Seoul the weakest uplink
/// (drives Raft-Oregon ≈ +30% over Raft-Seoul).
inline std::vector<double> fig10_egress() {
  std::vector<double> egress;
  for (double mbps : {750.0, 700.0, 650.0, 700.0, 560.0}) {
    egress.push_back(sim::EgressLink::mbps_to_bytes_per_us(mbps));
  }
  return egress;
}

/// The Fig. 10 workload: 100% puts (§5.2).
inline kv::WorkloadConfig fig10_workload(uint32_t value_size,
                                         double conflict_rate) {
  kv::WorkloadConfig wl;
  wl.read_fraction = 0.0;
  wl.conflict_rate = conflict_rate;
  wl.num_records = 100'000;
  wl.value_size = value_size;
  return wl;
}

}  // namespace praft::bench
