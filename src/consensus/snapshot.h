#pragma once

#include <functional>

#include "consensus/types.h"
#include "kv/store.h"

namespace praft::consensus {

/// A state-machine checkpoint covering the log prefix [.., last_index]: the
/// runtime realization of the paper's ported Checkpoint action. Every
/// protocol in the repo compacts its log against one of these and ships it
/// to lagging peers (InstallSnapshot in Raft/Raft*, commit-floor snapshot
/// learning in MultiPaxos/Mencius) — the same delta read through the
/// refinement mapping, mirroring tests/checkpoint_port_test.cpp at the
/// spec level.
struct Snapshot {
  /// Last log position whose effect is included in `state` (inclusive).
  /// -1 = no snapshot taken yet (0 is a real position in Mencius' 0-based
  /// slot space).
  LogIndex last_index = -1;
  /// Term of the entry at last_index (Raft-family prev-checks resume from
  /// the snapshot boundary; ballot-numbered protocols leave it 0).
  Term last_term = 0;
  kv::StoreImage state;

  [[nodiscard]] bool valid() const { return last_index >= 0; }

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.last_index, m.last_term, m.state); }

  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

/// Serializes the state machine at the CURRENT applied watermark. Installed
/// by the harness adapter that owns the kv::Store; protocols call it through
/// their Applier when the compaction policy fires.
using StateCapture = std::function<kv::StoreImage()>;

/// Replaces the state machine with a snapshot image whose coverage ends at
/// `last_index`. The adapter also drops reply bookkeeping the snapshot
/// superseded and reports the install to its Env's Trace (chaos invariants).
using StateRestore =
    std::function<void(const kv::StoreImage& state, LogIndex last_index)>;

}  // namespace praft::consensus
