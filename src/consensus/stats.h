#pragma once

#include <cstdint>

namespace praft::consensus {

/// One replica's named monotone counters. The Env owns the block (see
/// Env::stats), so a cluster replica's lives on its NodeHost, which
/// outlives crash-restarts: every incarnation of the replica counts into
/// the same block and nothing is banked when a node is destroyed. A new
/// counter is one field here, its term in operator+=, and its increment.
struct Stats {
  /// Snapshots installed from peers (catch-up by state transfer instead of
  /// log replay).
  int64_t snapshots_installed = 0;
  /// Replication-window rollbacks as leader: reject-driven unwinds plus
  /// loss-detection retransmit probes (consensus::PeerPipeline).
  int64_t pipeline_rollbacks = 0;
  /// Revocations started (Mencius).
  int64_t revocations_started = 0;

  Stats& operator+=(const Stats& o) {
    snapshots_installed += o.snapshots_installed;
    pipeline_rollbacks += o.pipeline_rollbacks;
    revocations_started += o.revocations_started;
    return *this;
  }
  bool operator==(const Stats&) const = default;
};

}  // namespace praft::consensus
