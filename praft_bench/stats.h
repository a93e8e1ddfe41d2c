#pragma once

// Sample statistics and host clocks shared by the benchmark's parts.

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace praft::pbench {

/// Host CPU time of this process, ns (the host clock of host_ns_per_op).
inline int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Host wall clock, ns. Monotonic and system-wide, so a parent and its
/// forked child can subtract each other's readings (setup_s).
inline int64_t wall_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Nearest-rank percentile of `v` (sorts it in place); 0 when empty.
inline int64_t percentile(std::vector<int64_t>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v.size()));
  if (static_cast<double>(rank) < p / 100.0 * static_cast<double>(v.size())) {
    ++rank;
  }
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

inline double mean(const std::vector<int64_t>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (int64_t x : v) s += static_cast<double>(x);
  return s / static_cast<double>(v.size());
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// splitmix64 step: folds `x` into a running hash (reply-stream identity).
inline uint64_t fold(uint64_t h, uint64_t x) {
  uint64_t z = h + 0x9e3779b97f4a7c15ull + x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Which clock a metric is read from. Sim metrics are a pure function of
/// (workload, seed) and must repeat exactly; host metrics are real time.
enum class Clock { kSim, kHost };

/// One reported number. `n` is the sample count behind a percentile or a
/// mean (-1 when the metric is a single reading).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t n = -1;
  Clock clock = Clock::kSim;
};

}  // namespace praft::pbench
