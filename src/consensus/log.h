#pragma once

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "consensus/slot_table.h"
#include "consensus/types.h"
#include "storage/wal.h"

namespace praft::consensus {

/// Contiguous replicated-log storage (Raft / Raft*): a compactable prefix,
/// then the retained positions (base_index(), last_index()]. The position at
/// `base_index()` is the *base sentinel* — index 0 (term 0) on a fresh log
/// and the last snapshot-covered entry after a compaction — whose term the
/// log keeps, so AppendEntries prev-checks need no special cases at either
/// boundary. All access is bounds-checked via PRAFT_CHECK — out-of-range
/// indexes (including reads into the compacted prefix) are protocol bugs,
/// never silent UB.
///
/// A store-backed log (set_store) keeps each durable entry once, as its
/// store's WAL cell: release_through() drops the in-memory copies a
/// completed fsync covers, and at() reads those positions from the store.
/// Only the unsynced suffix stays in memory, as a dense vector. A log
/// without a store releases nothing, so the vector holds every retained
/// entry.
///
/// `E` is an aggregate of {Term term; kv::Command cmd} (both Raft entry
/// types are): what a WAL cell holds of it.
template <typename E>
class ContiguousLog {
 public:
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

  /// The store whose WAL holds this log's released entries (null: none).
  void set_store(const storage::DurableStore* store) { store_ = store; }

  /// Index of the sentinel: everything at or below it lives only in the
  /// snapshot. 0 until the first compaction.
  [[nodiscard]] LogIndex base_index() const { return base_; }
  /// First readable real entry (base_index() + 1).
  [[nodiscard]] LogIndex first_index() const { return base_ + 1; }

  [[nodiscard]] LogIndex last_index() const {
    return mem_base_ + static_cast<LogIndex>(entries_.size());
  }

  /// Entries retained above the compacted prefix (excluding the sentinel),
  /// in memory or in the store — what the bounded-memory invariant measures.
  [[nodiscard]] size_t resident_entries() const {
    return static_cast<size_t>(last_index() - base_);
  }
  /// Entries held in memory: the unsynced suffix of a store-backed log.
  [[nodiscard]] size_t memory_entries() const { return entries_.size(); }

  [[nodiscard]] E at(LogIndex i) const {
    PRAFT_CHECK(i >= base_ && i <= last_index());
    if (i > mem_base_) return entries_[static_cast<size_t>(i - mem_base_ - 1)];
    if (i == base_) return E{base_term_, {}};
    const storage::WalCell* c = store_->cell(i);
    PRAFT_CHECK_MSG(c != nullptr, "released log entry missing from the WAL");
    return E{c->term, c->cmd};
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
    // A cut below the released prefix reopens the in-memory suffix at the
    // cut: the WAL cells above it stay stale until the truncation syncs.
    mem_base_ = std::min(mem_base_, last_kept);
    entries_.resize(static_cast<size_t>(last_kept - mem_base_));
    if (on_truncate_) on_truncate_(last_kept);
  }

  /// Discards entries up to and including `new_base` (which must be
  /// retained); the entry at `new_base` becomes the sentinel, so its term
  /// keeps answering prev-checks at the snapshot boundary. The caller is
  /// responsible for holding a snapshot covering [.., new_base] first, and
  /// stages it only afterwards: its WAL truncation may drop the cell the new
  /// sentinel's term is read from.
  void compact_to(LogIndex new_base) {
    PRAFT_CHECK(new_base >= base_ && new_base <= last_index());
    if (new_base == base_) return;
    base_term_ = at(new_base).term;
    drop_memory_through(new_base);
    base_ = new_base;
  }

  /// Drops the whole log and restarts it at `base`, whose term is
  /// `base_term` (snapshot install where the local log conflicts with or
  /// falls short of the snapshot).
  void reset_to(LogIndex base, Term base_term) {
    PRAFT_CHECK(base >= 0);
    entries_.clear();
    base_ = mem_base_ = base;
    base_term_ = base_term;
    // Durably: anything beyond the new base conflicts with the snapshot
    // being installed (the caller persists the snapshot itself).
    if (on_truncate_) on_truncate_(base);
  }

  /// Drops the in-memory copies of every position at or below `durable`,
  /// which a completed fsync put in the store's WAL; at() reads them there
  /// from now on. A no-op without a store.
  void release_through(LogIndex durable) {
    if (store_ == nullptr) return;
    PRAFT_CHECK(durable <= last_index());
    drop_memory_through(durable);
  }

  /// Crash recovery: extends an all-durable log through `last` over the
  /// store's WAL cells, which must hold every position in between.
  void adopt_durable(LogIndex last) {
    PRAFT_CHECK(store_ != nullptr && entries_.empty() && last >= mem_base_);
    mem_base_ = last;
  }

 private:
  /// Drops the in-memory entries at or below `i`.
  void drop_memory_through(LogIndex i) {
    if (i <= mem_base_) return;
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<ptrdiff_t>(i - mem_base_));
    mem_base_ = i;
  }

  LogIndex base_ = 0;
  Term base_term_ = 0;
  // Positions (base_, mem_base_] live in the store's WAL, (mem_base_,
  // last_index()] in entries_. mem_base_ == base_ without a store.
  LogIndex mem_base_ = 0;
  std::vector<E> entries_;
  const storage::DurableStore* store_ = nullptr;
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
