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
    return;
  }
  if (const auto* rec = std::get_if<WalRecord>(&op)) {
    if (rec->index <= snapshot_floor()) return;  // already inside the snapshot
    // Coalesce: the newest record wins. Its position is its index.
    wal_.materialize(rec->index) = static_cast<const WalCell&>(*rec);
    return;
  }
  if (const auto* tr = std::get_if<Truncate>(&op)) {
    wal_.erase_after(tr->last_kept);
    return;
  }
  const auto& snap = std::get<consensus::Snapshot>(op);
  if (!snap.valid() || snap.last_index <= snapshot_floor()) return;
  snap_ = snap;
  // The snapshot substitutes for replaying everything it covers.
  wal_.erase_through(snap.last_index,
                     [](consensus::LogIndex, const WalCell&) {});
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
  img.records.reserve(wal_.size());
  wal_.for_each([&img](consensus::LogIndex i, const WalCell& c) {
    img.records.push_back(WalRecord{c, i});
  });
  return img;
}

}  // namespace praft::storage
