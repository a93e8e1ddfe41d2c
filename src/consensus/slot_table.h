#pragma once

#include <deque>
#include <optional>
#include <utility>

#include "consensus/types.h"

namespace praft::consensus {

/// Position-indexed cells for logs with holes: the value at index i lives in
/// cells_[i - first_], and absent cells fill the gaps between present ones.
/// Both ends are kept present (the table is empty, or its front and back
/// cells hold values), so the table spans exactly the live positions.
///
/// A std::deque grows at either end without moving its elements: a reference
/// returned by materialize() stays valid until that index is erased, however
/// far the table grows below or above it. MultiPaxos instances, Mencius slots
/// (SparseLog) and WAL records (storage::DurableStore) all live here.
template <typename T>
class SlotTable {
 public:
  /// Present cells.
  [[nodiscard]] size_t size() const { return live_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }
  /// Highest present index; requires !empty().
  [[nodiscard]] LogIndex back_index() const {
    return first_ + static_cast<LogIndex>(cells_.size()) - 1;
  }

  [[nodiscard]] const T* find(LogIndex i) const {
    if (i < first_ || i > back_index()) return nullptr;
    const std::optional<T>& c = cells_[static_cast<size_t>(i - first_)];
    return c ? &*c : nullptr;
  }

  [[nodiscard]] T* find(LogIndex i) {
    return const_cast<T*>(std::as_const(*this).find(i));
  }

  /// The value at `i`, default-constructed on first touch. Opens absent
  /// cells between the current ends and `i`.
  [[nodiscard]] T& materialize(LogIndex i) {
    if (cells_.empty()) first_ = i;
    if (i < first_) {
      cells_.insert(cells_.begin(), static_cast<size_t>(first_ - i),
                    std::nullopt);
      first_ = i;
    } else if (i > back_index()) {
      cells_.insert(cells_.end(), static_cast<size_t>(i - back_index()),
                    std::nullopt);
    }
    std::optional<T>& c = cells_[static_cast<size_t>(i - first_)];
    if (!c) {
      c.emplace();
      ++live_;
    }
    return *c;
  }

  /// Drops the value at `i` (no-op when absent).
  void erase(LogIndex i) {
    if (find(i) == nullptr) return;
    cells_[static_cast<size_t>(i - first_)].reset();
    --live_;
    trim();
  }

  /// Drops every value at or below `i`, calling `fn(index, value)` on each
  /// one first, in ascending index order.
  template <typename Fn>
  void erase_through(LogIndex i, Fn&& fn) {
    for (; !cells_.empty() && first_ <= i; ++first_) {
      std::optional<T>& c = cells_.front();
      if (c) {
        fn(first_, *c);
        --live_;
      }
      cells_.pop_front();
    }
    trim();
  }

  /// Drops every value above `i`.
  void erase_after(LogIndex i) {
    while (!cells_.empty() && back_index() > i) {
      if (cells_.back()) --live_;
      cells_.pop_back();
    }
    trim();
  }

  /// Calls `fn(value)` on every present value, in ascending index order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const std::optional<T>& c : cells_) {
      if (c) fn(*c);
    }
  }

 private:
  /// Pops absent cells off both ends.
  void trim() {
    while (!cells_.empty() && !cells_.back()) cells_.pop_back();
    for (; !cells_.empty() && !cells_.front(); ++first_) cells_.pop_front();
  }

  std::deque<std::optional<T>> cells_;
  LogIndex first_ = 0;  // index of cells_.front()
  size_t live_ = 0;     // present cells
};

}  // namespace praft::consensus
