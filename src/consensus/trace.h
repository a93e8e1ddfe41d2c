#pragma once

#include <cstdint>

#include "common/types.h"
#include "consensus/types.h"

namespace praft::storage {
struct RecoveryStats;
}

namespace praft::consensus {

/// One replica's event observer, opt-in per event: every hook is a no-op
/// until an observer overrides it. The Env holds it (see Env::trace), so a
/// cluster replica's trace lives on its NodeHost and sees every incarnation
/// of the replica without being re-installed. All four protocols report the
/// same four events, and from the shared runtime (consensus::Applier,
/// storage::Persister, harness::LogServer, harness::ReplicaGroup), never from
/// protocol code.
class Trace {
 public:
  virtual ~Trace() = default;

  /// The Applier's (commit, applied) watermarks after every drain, including
  /// drains that delivered nothing, and after every snapshot install.
  virtual void on_watermark(NodeId replica, LogIndex commit, LogIndex applied) {
    (void)replica;
    (void)commit;
    (void)applied;
  }

  /// A snapshot install on the replica's state machine: the covered last
  /// index and the store fingerprint right after the restore.
  virtual void on_snapshot_install(NodeId replica, LogIndex idx,
                                   uint64_t store_fp) {
    (void)replica;
    (void)idx;
    (void)store_fp;
  }

  /// The hard state a message depended on, captured when the message was
  /// sent and reported when it leaves the replica (storage::Persister: after
  /// its fsync barrier, or at once on the unsynced path).
  virtual void on_sent_state(NodeId replica, const HardState& hs) {
    (void)replica;
    (void)hs;
  }

  /// A completed crash-restart: the recovered hard state, what the recovery
  /// replayed, and the applied index right after start().
  virtual void on_restart(NodeId replica, const HardState& recovered,
                          const storage::RecoveryStats& stats,
                          LogIndex applied) {
    (void)replica;
    (void)recovered;
    (void)stats;
    (void)applied;
  }
};

}  // namespace praft::consensus
