#pragma once

#include <cstddef>

#include "common/types.h"

namespace praft::sim {

/// A serial FIFO resource (NIC egress or CPU core). Work enqueued at time t
/// with service duration d completes at max(next_free, t) + d. This is the
/// mechanism by which peak-throughput experiments saturate: once arrivals
/// outpace the service rate, completion times (and thus latencies) grow.
class SerialResource {
 public:
  /// Enqueues work; returns its completion time.
  Time enqueue(Time now, Duration service) {
    if (next_free_ < now) next_free_ = now;
    next_free_ += service;
    busy_ += service;
    return next_free_;
  }

  /// Earliest time new work could start.
  [[nodiscard]] Time next_free() const { return next_free_; }

  /// Total busy time accumulated (for utilization reports).
  [[nodiscard]] Duration busy_time() const { return busy_; }

  /// Queueing backlog at `now` (0 when idle).
  [[nodiscard]] Duration backlog(Time now) const {
    return next_free_ > now ? next_free_ - now : 0;
  }

  void reset() { next_free_ = 0; busy_ = 0; }

 private:
  Time next_free_ = 0;
  Duration busy_ = 0;
};

/// Egress NIC modeled as a SerialResource whose service time is bytes/rate.
class EgressLink {
 public:
  /// rate in bytes per microsecond; <= 0 means unlimited.
  explicit EgressLink(double bytes_per_us = 0.0) : rate_(bytes_per_us) {}

  static double mbps_to_bytes_per_us(double mbps) {
    return mbps * 1e6 / 8.0 / 1e6;  // bits/s -> bytes/us
  }

  Time enqueue(Time now, size_t bytes) {
    if (rate_ <= 0.0) return now;
    const auto service =
        static_cast<Duration>(static_cast<double>(bytes) / rate_);
    return q_.enqueue(now, service);
  }

  [[nodiscard]] Duration busy_time() const { return q_.busy_time(); }
  [[nodiscard]] Duration backlog(Time now) const { return q_.backlog(now); }

 private:
  double rate_;
  SerialResource q_;
};

}  // namespace praft::sim
