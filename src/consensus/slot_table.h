#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>

#include "consensus/types.h"

namespace praft::consensus {

/// Position-indexed cells for logs with holes: plain `T` cells in pages of
/// 64 consecutive indexes, each page with one presence bit per cell. An
/// absent cell holds a default `T`, so a present cell costs sizeof(T) and
/// erasing one resets it. A page lives only while some cell of it is
/// present, and both end pages are kept live, so the table spans exactly
/// the pages between its lowest and highest present index; a run of absent
/// pages costs a null pointer each. A std::deque<T> with a parallel
/// std::deque<bool> would be shorter, but its 512-byte chunks hold seven
/// 72-byte cells and a map pointer per chunk: ~75.3 bytes per cell against
/// ~72.4 here, and 177.8 against 172.1 MiB peak RSS on sharded-write-paxos
/// (x86-64, glibc malloc).
///
/// Pages never move: a reference returned by materialize() stays valid until
/// that index is erased, however far the table grows below or above it.
/// MultiPaxos instances, Mencius slots (SparseLog) and WAL cells
/// (storage::DurableStore) all live here.
template <typename T>
class SlotTable {
 public:
  /// Present cells.
  [[nodiscard]] size_t size() const { return live_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }
  /// Highest present index; requires !empty().
  [[nodiscard]] LogIndex back_index() const {
    return last_page() * kCells + (kCells - 1) -
           std::countl_zero(pages_.back()->present);
  }

  [[nodiscard]] const T* find(LogIndex i) const {
    const Page* p = page_of(i);
    if (p == nullptr || (p->present & bit(i)) == 0) return nullptr;
    return &p->cells[slot(i)];
  }

  [[nodiscard]] T* find(LogIndex i) {
    return const_cast<T*>(std::as_const(*this).find(i));
  }

  /// The value at `i`, default-constructed on first touch. Opens absent
  /// pages between the current ends and `i`.
  [[nodiscard]] T& materialize(LogIndex i) {
    const LogIndex pg = i >> kShift;
    if (pages_.empty()) first_page_ = pg;
    for (; pg < first_page_; --first_page_) pages_.emplace_front();
    while (pages_.empty() || pg > last_page()) pages_.emplace_back();
    std::unique_ptr<Page>& p = pages_[static_cast<size_t>(pg - first_page_)];
    if (!p) p = std::make_unique<Page>();
    if ((p->present & bit(i)) == 0) {
      p->present |= bit(i);
      ++live_;
    }
    return p->cells[slot(i)];
  }

  /// Drops the value at `i` (no-op when absent).
  void erase(LogIndex i) {
    if (find(i) == nullptr) return;
    std::unique_ptr<Page>& p =
        pages_[static_cast<size_t>((i >> kShift) - first_page_)];
    if (release(*p, bit(i))) p.reset();
    trim();
  }

  /// Drops every value at or below `i`, calling `fn(index, value)` on each
  /// one first, in ascending index order.
  template <typename Fn>
  void erase_through(LogIndex i, Fn&& fn) {
    while (!pages_.empty() && first_page_ <= (i >> kShift)) {
      if (Page* p = pages_.front().get()) {
        const LogIndex base = first_page_ * kCells;
        uint64_t through = 0;
        for (uint64_t m = p->present; m != 0; m &= m - 1) {
          const int k = std::countr_zero(m);
          if (base + k > i) break;
          fn(base + k, p->cells[static_cast<size_t>(k)]);
          through |= uint64_t{1} << k;
        }
        if (!release(*p, through)) break;  // the rest is above `i`
      }
      pages_.pop_front();
      ++first_page_;
    }
    trim();
  }

  /// Drops every value above `i`.
  void erase_after(LogIndex i) {
    while (!pages_.empty() && last_page() >= (i >> kShift)) {
      if (Page* p = pages_.back().get()) {
        // On i's own page, keep the cells at or below `i`.
        const uint64_t above =
            last_page() == (i >> kShift) ? ~((bit(i) << 1) - 1) : ~uint64_t{0};
        if (!release(*p, p->present & above)) break;  // the rest is <= `i`
      }
      pages_.pop_back();
    }
    trim();
  }

  /// Calls `fn(index, value)` on every present value, in ascending index
  /// order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    LogIndex base = first_page_ * kCells;
    for (const std::unique_ptr<Page>& p : pages_) {
      if (const Page* page = p.get()) {
        for (uint64_t m = page->present; m != 0; m &= m - 1) {
          const int k = std::countr_zero(m);
          fn(base + k, page->cells[static_cast<size_t>(k)]);
        }
      }
      base += kCells;
    }
  }

 private:
  static constexpr int kShift = 6;
  static constexpr int kCells = 1 << kShift;  // one presence word per page

  struct Page {
    uint64_t present = 0;  // bit k: cells[k] holds a value
    std::array<T, kCells> cells{};
  };

  /// Cell of `i` within its page (floor semantics for negative indexes).
  static size_t slot(LogIndex i) {
    return static_cast<size_t>(i & (kCells - 1));
  }
  static uint64_t bit(LogIndex i) { return uint64_t{1} << slot(i); }

  /// Page number of pages_.back(); requires !pages_.empty().
  [[nodiscard]] LogIndex last_page() const {
    return first_page_ + static_cast<LogIndex>(pages_.size()) - 1;
  }

  [[nodiscard]] const Page* page_of(LogIndex i) const {
    const LogIndex pg = i >> kShift;
    if (pages_.empty() || pg < first_page_ || pg > last_page()) return nullptr;
    return pages_[static_cast<size_t>(pg - first_page_)].get();
  }

  /// Marks the cells in `mask` absent. True when that empties the page,
  /// which the caller then frees; otherwise resets those cells, releasing
  /// what they held.
  bool release(Page& p, uint64_t mask) {
    p.present &= ~mask;
    live_ -= static_cast<size_t>(std::popcount(mask));
    if (p.present == 0) return true;
    for (; mask != 0; mask &= mask - 1) {
      p.cells[static_cast<size_t>(std::countr_zero(mask))] = T{};
    }
    return false;
  }

  /// Pops absent pages off both ends.
  void trim() {
    while (!pages_.empty() && !pages_.back()) pages_.pop_back();
    for (; !pages_.empty() && !pages_.front(); ++first_page_) {
      pages_.pop_front();
    }
  }

  std::deque<std::unique_ptr<Page>> pages_;
  LogIndex first_page_ = 0;  // page number (index >> kShift) of pages_.front()
  size_t live_ = 0;          // present cells
};

}  // namespace praft::consensus
