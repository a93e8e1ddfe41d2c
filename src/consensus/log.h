#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "consensus/slot_table.h"
#include "consensus/types.h"

namespace praft::consensus {

/// Contiguous replicated-log storage (Raft / Raft*): a dense array behind a
/// compactable prefix. `entries_[0]` is the *base sentinel* — the entry at
/// `base_index()`, which is index 0 (term 0) on a fresh log and the last
/// snapshot-covered entry after a compaction — so AppendEntries prev-checks
/// need no special cases at either boundary. All access is bounds-checked
/// via PRAFT_CHECK — out-of-range indexes (including reads into the
/// compacted prefix) are protocol bugs, never silent UB.
template <typename E>
class ContiguousLog {
 public:
  ContiguousLog() { entries_.emplace_back(); }  // index 0 sentinel

  /// Persistence hooks (src/storage): every mutation of the retained log is
  /// mirrored into the node's write-ahead log through these. `append` fires
  /// per appended entry, `truncate` per suffix erasure (both conflict
  /// erasure and snapshot-install resets), so the durable log can never be
  /// AHEAD of the in-memory one — the write-ahead ordering is: stage via
  /// hook, then gate the dependent message on the fsync (storage::Persister).
  using AppendHook = std::function<void(LogIndex, const E&)>;
  using TruncateHook = std::function<void(LogIndex last_kept)>;
  void set_persistence(AppendHook append, TruncateHook truncate) {
    on_append_ = std::move(append);
    on_truncate_ = std::move(truncate);
  }

  /// Index of the sentinel: everything at or below it lives only in the
  /// snapshot. 0 until the first compaction.
  [[nodiscard]] LogIndex base_index() const { return base_; }
  /// First readable real entry (base_index() + 1).
  [[nodiscard]] LogIndex first_index() const { return base_ + 1; }

  [[nodiscard]] LogIndex last_index() const {
    return base_ + static_cast<LogIndex>(entries_.size()) - 1;
  }

  /// Entries physically retained (excluding the sentinel) — what the
  /// bounded-memory invariant measures.
  [[nodiscard]] size_t resident_entries() const { return entries_.size() - 1; }

  [[nodiscard]] const E& at(LogIndex i) const {
    PRAFT_CHECK(i >= base_ && i <= last_index());
    return entries_[static_cast<size_t>(i - base_)];
  }

  [[nodiscard]] E& at(LogIndex i) {
    PRAFT_CHECK(i >= base_ && i <= last_index());
    return entries_[static_cast<size_t>(i - base_)];
  }

  void append(E e) {
    entries_.push_back(std::move(e));
    if (on_append_) on_append_(last_index(), entries_.back());
  }

  /// Erases everything after `last_kept` (conflict-suffix erasure in Raft,
  /// full-suffix replacement in Raft*). Keeping the sentinel is mandatory,
  /// and a compacted prefix can never be truncated into: entries at or
  /// below base_index() are part of a committed, snapshotted prefix.
  void truncate_after(LogIndex last_kept) {
    PRAFT_CHECK(last_kept >= base_ && last_kept <= last_index());
    if (last_kept == last_index()) return;
    entries_.resize(static_cast<size_t>(last_kept - base_) + 1);
    if (on_truncate_) on_truncate_(last_kept);
  }

  /// Discards entries up to and including `new_base` (which must be
  /// retained); the entry at `new_base` becomes the sentinel, so its term
  /// keeps answering prev-checks at the snapshot boundary. The caller is
  /// responsible for holding a snapshot covering [.., new_base] first.
  void compact_to(LogIndex new_base) {
    PRAFT_CHECK(new_base >= base_ && new_base <= last_index());
    if (new_base == base_) return;
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<ptrdiff_t>(new_base - base_));
    base_ = new_base;
  }

  /// Drops the whole log and restarts it at `base` with `sentinel` as the
  /// boundary entry (snapshot install where the local log conflicts with or
  /// falls short of the snapshot).
  void reset_to(LogIndex base, E sentinel) {
    PRAFT_CHECK(base >= 0);
    entries_.clear();
    entries_.push_back(std::move(sentinel));
    base_ = base;
    // Durably: anything beyond the new base conflicts with the snapshot
    // being installed (the caller persists the snapshot itself).
    if (on_truncate_) on_truncate_(base);
  }

 private:
  LogIndex base_ = 0;
  std::vector<E> entries_;
  AppendHook on_append_;
  TruncateHook on_truncate_;
};

/// Sparse instance/slot storage (MultiPaxos / Mencius): holes are real in
/// Paxos-family protocols — instances commit out of order and execution
/// waits at the first gap. Slots materialize on first touch and may be
/// pruned once executed (Mencius), or wholesale below a checkpoint floor
/// (compaction: slots at or below the floor live only in the snapshot).
/// Slots sit in a position-indexed SlotTable, so a reference from
/// materialize() survives growth at either end.
template <typename S>
class SparseLog {
 public:
  /// Persistence hook (src/storage): sparse protocols mutate slot fields in
  /// place, so the container cannot observe every change — instead the
  /// protocol calls persist(i) after each mutation block and the hook
  /// mirrors the slot's full durable state into the write-ahead log (one
  /// coalescing record per slot). Floor pruning needs no hook of its own:
  /// the caller durably stages the covering snapshot, which truncates the
  /// WAL prefix the pruned slots lived in.
  using UpdateHook = std::function<void(LogIndex, const S&)>;
  void set_persistence(UpdateHook update) { on_update_ = std::move(update); }

  /// Mirrors slot `i`'s current state through the update hook. No-op when
  /// the slot does not exist (e.g. already pruned) or no hook is installed.
  void persist(LogIndex i) {
    if (!on_update_) return;
    if (const S* s = slots_.find(i)) on_update_(i, *s);
  }

  /// Materializes (default-constructs) the slot on first touch — unlike
  /// ContiguousLog::at, which is a bounds-checked read. The distinct name
  /// keeps a read-path caller from silently creating phantom slots, and the
  /// floor check keeps one from resurrecting a compacted slot.
  [[nodiscard]] S& materialize(LogIndex i) {
    PRAFT_CHECK(i > floor_);
    return slots_.materialize(i);
  }

  [[nodiscard]] const S* find(LogIndex i) const { return slots_.find(i); }
  [[nodiscard]] S* find(LogIndex i) { return slots_.find(i); }

  /// Prunes slot `i` (no-op when absent).
  void erase(LogIndex i) { slots_.erase(i); }

  /// Checkpoint floor: slots at or below it are pruned and may never be
  /// re-materialized (their decisions live in the snapshot). Monotone.
  [[nodiscard]] LogIndex floor() const { return floor_; }

  /// Raises the floor and prunes every slot at or below it. `cleanup` is
  /// invoked for each pruned (index, slot) before erasure, in ascending
  /// index order — protocols release per-slot bookkeeping (Mencius
  /// commutativity counters) there.
  template <typename Cleanup>
  void set_floor(LogIndex new_floor, Cleanup&& cleanup) {
    if (new_floor <= floor_) return;
    floor_ = new_floor;
    slots_.erase_through(floor_, cleanup);
  }

  void set_floor(LogIndex new_floor) {
    set_floor(new_floor, [](LogIndex, const S&) {});
  }

  [[nodiscard]] bool empty() const { return slots_.empty(); }
  /// Live slots (what resident_log_entries() reports).
  [[nodiscard]] size_t size() const { return slots_.size(); }

 private:
  SlotTable<S> slots_;
  LogIndex floor_ = -1;  // below any real position (0-based Mencius included)
  UpdateHook on_update_;
};

}  // namespace praft::consensus
