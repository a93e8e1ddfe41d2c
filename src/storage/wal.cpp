#include "storage/wal.h"

#include "common/check.h"

namespace praft::storage {

void DurableStore::stage_hard_state(const consensus::HardState& hs) {
  staged_.emplace_back(hs);
  ++staged_seq_;
}

void DurableStore::stage_record(WalRecord r) {
  staged_.emplace_back(std::move(r));
  ++staged_seq_;
}

void DurableStore::stage_truncate_after(consensus::LogIndex last_kept) {
  staged_.emplace_back(Truncate{last_kept});
  ++staged_seq_;
}

void DurableStore::stage_snapshot(consensus::Snapshot snap) {
  staged_.emplace_back(std::move(snap));
  ++staged_seq_;
}

void DurableStore::apply(const StagedOp& op) {
  if (const auto* hs = std::get_if<consensus::HardState>(&op)) {
    hard_ = *hs;
    bytes_synced_ += 40;
    return;
  }
  if (const auto* rec = std::get_if<WalRecord>(&op)) {
    bytes_synced_ += rec->wire_bytes();
    if (rec->index <= snapshot_floor()) return;  // already inside the snapshot
    if (slots_.empty()) first_ = rec->index;
    // Open the slots between the current ends and the record's index.
    for (; rec->index < first_; --first_) slots_.emplace_front();
    while (rec->index >= first_ + static_cast<consensus::LogIndex>(
                                      slots_.size())) {
      slots_.emplace_back();
    }
    Slot& slot = slots_[static_cast<size_t>(rec->index - first_)];
    if (!slot.present) ++live_;
    slot.present = true;
    slot.rec = *rec;  // coalesce: the newest record for an index wins
    return;
  }
  if (const auto* tr = std::get_if<Truncate>(&op)) {
    while (!slots_.empty() && wal_tail() > tr->last_kept) {
      if (slots_.back().present) --live_;
      slots_.pop_back();
    }
    trim();
    bytes_synced_ += 16;
    return;
  }
  const auto& snap = std::get<consensus::Snapshot>(op);
  bytes_synced_ += snap.wire_bytes();
  if (!snap.valid() || snap.last_index <= snapshot_floor()) return;
  snap_ = snap;
  // The snapshot substitutes for replaying everything it covers.
  for (; !slots_.empty() && first_ <= snap.last_index; ++first_) {
    if (slots_.front().present) --live_;
    slots_.pop_front();
  }
  trim();
}

void DurableStore::trim() {
  while (!slots_.empty() && !slots_.back().present) slots_.pop_back();
  for (; !slots_.empty() && !slots_.front().present; ++first_) {
    slots_.pop_front();
  }
}

void DurableStore::commit_through(uint64_t seq) {
  PRAFT_CHECK(seq <= staged_seq_);
  while (synced_seq_ < seq) {
    const size_t k = static_cast<size_t>(synced_seq_ - base_seq_);
    PRAFT_CHECK(k < staged_.size());
    apply(staged_[k]);
    ++synced_seq_;
    any_synced_ = true;
  }
  // Drop the committed prefix of the staging buffer.
  const size_t committed = static_cast<size_t>(synced_seq_ - base_seq_);
  if (committed > 0) {
    staged_.erase(staged_.begin(),
                  staged_.begin() + static_cast<ptrdiff_t>(committed));
    base_seq_ = synced_seq_;
  }
}

void DurableStore::drop_unsynced() {
  staged_.clear();
  staged_seq_ = synced_seq_;
  base_seq_ = synced_seq_;
}

DurableImage DurableStore::image() const {
  DurableImage img;
  img.hard = hard_;
  img.snap = snap_;
  img.records.reserve(live_);
  for (const Slot& slot : slots_) {
    if (slot.present) img.records.push_back(slot.rec);
  }
  return img;
}

}  // namespace praft::storage
