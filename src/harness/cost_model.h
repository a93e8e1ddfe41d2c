#pragma once

#include "common/types.h"

namespace praft::harness {

/// Per-node CPU service costs. These are the calibration constants behind the
/// CPU-bound throughput figures (DESIGN.md §6): the Raft leader's per-op work
/// is client_request (decode, propose, amortized fsync, reply) and it
/// saturates first; Mencius spreads that cost over all replicas. An
/// all-zero model bills nothing: each packet is handled the moment it
/// arrives.
struct CostModel {
  Duration message_base = usec(4);    // fixed cost to receive any message
  Duration client_request = usec(22); // full client-op handling at the serving
                                      // node (leader, or Mencius owner)
  Duration forward_handle = usec(6);  // follower relaying a client op
  Duration entry_follower = usec(14); // per log entry applied from an append
                                      // (fsync amortization, dedup — etcd's
                                      // follower path is not cheap)
  Duration per_4kb = usec(6);         // additional cost per 4 KiB of payload

  [[nodiscard]] Duration size_cost(size_t bytes) const {
    return static_cast<Duration>(
        static_cast<double>(per_4kb) * static_cast<double>(bytes) / 4096.0);
  }

  /// Baseline receive cost for a message of `bytes` encoded wire bytes:
  /// fixed per-message overhead plus the size-proportional part. With the
  /// flat codec, `bytes` is the exact frame length — cost is charged from
  /// what is actually on the wire, not a flat small-message estimate.
  [[nodiscard]] Duration receive_cost(size_t bytes) const {
    return message_base + size_cost(bytes);
  }
};

}  // namespace praft::harness
