#include "kv/store.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace praft::kv {

namespace {

/// Smallest table: allocated by the first put, never at construction.
constexpr size_t kMinSlots = 16;

/// At most 3/4 of the slots are occupied. Misses (most of PQL's reads)
/// probe to the next empty slot, so the bound keeps them short.
bool over_load(size_t keys, size_t slots) { return keys * 4 > slots * 3; }

/// splitmix64's finalizer: spreads the workload's dense key ranges over
/// the table.
uint64_t mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

size_t KvStore::slot_of(uint64_t key) const {
  const size_t mask = slots_.size() - 1;
  size_t i = static_cast<size_t>(mix(key)) & mask;
  while (slots_[i].version != 0 && slots_[i].key != key) i = (i + 1) & mask;
  return i;
}

const KvStore::Slot* KvStore::find(uint64_t key) const {
  if (slots_.empty()) return nullptr;
  const Slot& s = slots_[slot_of(key)];
  return s.version == 0 ? nullptr : &s;
}

void KvStore::rehash(size_t capacity) {
  const std::vector<Slot> old =
      std::exchange(slots_, std::vector<Slot>(capacity));
  for (const Slot& s : old) {
    if (s.version != 0) slots_[slot_of(s.key)] = s;
  }
}

ApplyResult KvStore::apply(const Command& cmd) {
  ++applied_;
  switch (cmd.op) {
    case Op::kNoop:
      return {};
    case Op::kGet: {
      const Slot* s = find(cmd.key);
      if (s == nullptr) return {};
      return {s->value, s->version};
    }
    case Op::kPut: {
      if (slots_.empty()) rehash(kMinSlots);
      size_t i = slot_of(cmd.key);
      if (slots_[i].version == 0) {
        if (over_load(size_ + 1, slots_.size())) {
          rehash(slots_.size() * 2);
          i = slot_of(cmd.key);
        }
        slots_[i].key = cmd.key;
        ++size_;
      }
      Slot& cell = slots_[i];
      cell.value = cmd.value;
      ++cell.version;
      return {cell.value, cell.version};
    }
  }
  return {};
}

uint64_t KvStore::read_local(uint64_t key) const {
  const Slot* s = find(key);
  return s == nullptr ? 0 : s->value;
}

StoreImage KvStore::image() const {
  StoreImage img;
  img.cells.reserve(size_);
  // Slot order depends on the table's growth history; the sort below makes
  // the image canonical.
  for (const Slot& s : slots_) {
    if (s.version != 0) {
      img.cells.push_back(StoreImage::Cell{s.key, s.value, s.version});
    }
  }
  std::sort(img.cells.begin(), img.cells.end(),
            [](const StoreImage::Cell& a, const StoreImage::Cell& b) {
              return a.key < b.key;
            });
  img.applied_count = applied_;
  return img;
}

void KvStore::restore(const StoreImage& img) {
  size_t capacity = img.cells.empty() ? 0 : kMinSlots;
  while (over_load(img.cells.size(), capacity)) capacity *= 2;
  slots_ = std::vector<Slot>(capacity);
  size_ = 0;
  for (const StoreImage::Cell& c : img.cells) {
    PRAFT_CHECK_MSG(c.version >= 1, "a stored key has been put at least once");
    Slot& s = slots_[slot_of(c.key)];
    if (s.version == 0) ++size_;
    s = Slot{c.key, c.value, c.version};
  }
  applied_ = img.applied_count;
}

uint64_t KvStore::fingerprint() const {
  // XOR of per-entry mixes: order-insensitive, collision-unlikely for tests.
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (const Slot& s : slots_) {
    if (s.version == 0) continue;
    uint64_t x = s.key * 0xbf58476d1ce4e5b9ull;
    x ^= s.value + 0x94d049bb133111ebull + (x << 6) + (x >> 2);
    x ^= s.version * 0x2545f4914f6cdd1dull;
    x = (x ^ (x >> 33)) * 0xff51afd7ed558ccdull;
    h ^= x ^ (x >> 29);
  }
  return h;
}

}  // namespace praft::kv
