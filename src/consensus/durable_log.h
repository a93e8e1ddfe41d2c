#pragma once

#include <algorithm>
#include <functional>
#include <utility>

#include "common/check.h"
#include "consensus/log.h"
#include "consensus/types.h"
#include "storage/persister.h"
#include "storage/wal.h"

namespace praft::consensus {

/// Shared durability plumbing for contiguous-log protocols (Raft, Raft*) —
/// the glue between ContiguousLog's persistence hooks and the per-node
/// storage::Persister, kept in the runtime layer so each protocol's node.cpp
/// holds only its genuine delta:
///
///  * every log append/truncate is mirrored into the write-ahead log;
///  * durable_index() is the highest log index a completed fsync covers —
///    the ONLY prefix a leader may count itself for in commit quorums. A
///    truncation-generation guard keeps a barrier armed before a
///    conflict-suffix erasure from overstating coverage afterwards;
///  * with a store, the WAL is the only copy of a durable entry: when a
///    barrier clears, the log releases the prefix its fsync covered and
///    reads it back from the store (ContiguousLog::release_through);
///  * replay() rebuilds the log from a DurableImage on crash recovery
///    (snapshot reset + contiguous WAL suffix, which the log reads in place
///    in the store), muting its own hooks so nothing is re-staged.
///
/// `E` must be an aggregate of {Term term; kv::Command cmd} (both Raft
/// entry types are).
template <typename E>
class DurableLogMirror {
 public:
  DurableLogMirror(storage::Persister& persister, ContiguousLog<E>& log)
      : persister_(persister), log_(log) {
    log_.set_store(persister_.store());
    log_.set_persistence(
        [this](LogIndex i, const E& e) {
          if (muted_) return;
          storage::WalRecord r;
          r.index = i;
          r.term = e.term;
          r.has_value = true;
          r.cmd = e.cmd;
          persister_.record(std::move(r));
        },
        [this](LogIndex last_kept) {
          if (muted_) return;
          persister_.truncate_after(last_kept);
          // Entries above last_kept are gone; any in-flight durability
          // barrier for them is obsolete (generation guard below).
          ++gen_;
          durable_index_ = std::min(durable_index_, last_kept);
          hwm_ = std::min(hwm_, last_kept);
        });
  }

  /// Arms a durability barrier for everything appended so far; when the
  /// covering fsync completes, durable_index() advances and `on_durable`
  /// runs (leaders re-count commit quorums there). Coalesces: at most one
  /// barrier per high-water mark.
  void note_appended(std::function<void()> on_durable) {
    const LogIndex target = log_.last_index();
    if (target <= hwm_) return;
    hwm_ = target;
    persister_.barrier(
        [this, target, gen = gen_, on_durable = std::move(on_durable)] {
          if (gen != gen_) return;  // truncated since; a fresh barrier covers
          durable_index_ = std::max(durable_index_, target);
          log_.release_through(durable_index_);
          if (on_durable) on_durable();
        });
  }

  /// Highest log index covered by a completed fsync (== last_index() under
  /// diskless or zero-cost storage, where barriers clear inline).
  [[nodiscard]] LogIndex durable_index() const { return durable_index_; }

  /// Crash recovery: rebuilds the log from the durable image, which must be
  /// the store's own — the snapshot stands in for everything at or below
  /// its floor, and the WAL suffix above it, contiguous, stays in the store
  /// where the log reads it. The caller restores its hard state and
  /// installs img.snap into its Applier itself.
  storage::RecoveryStats replay(const storage::DurableImage& img) {
    PRAFT_CHECK_MSG(log_.last_index() == 0,
                    "WAL replay must run on a fresh log");
    muted_ = true;
    storage::RecoveryStats stats;
    stats.recovered = true;
    if (img.snap.valid()) {
      log_.reset_to(img.snap.last_index, img.snap.last_term);
      stats.snapshot_floor = img.snap.last_index;
    }
    LogIndex tail = log_.last_index();
    for (const storage::WalRecord& r : img.records) {
      PRAFT_CHECK_MSG(r.index == tail + 1,
                      "WAL replay must be contiguous above the snapshot");
      tail = r.index;
    }
    log_.adopt_durable(tail);
    stats.replayed = img.records.size();
    stats.wal_tail = std::max(stats.snapshot_floor, tail);
    // Everything just replayed IS the durable log.
    durable_index_ = tail;
    hwm_ = tail;
    muted_ = false;
    return stats;
  }

 private:
  storage::Persister& persister_;
  ContiguousLog<E>& log_;
  LogIndex durable_index_ = 0;
  LogIndex hwm_ = 0;     // highest index with a barrier armed
  uint64_t gen_ = 0;     // bumped on truncation; stale barriers no-op
  bool muted_ = false;   // replay() mutes its own re-staging
};

}  // namespace praft::consensus
