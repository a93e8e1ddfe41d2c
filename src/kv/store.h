#pragma once

#include <cstdint>
#include <vector>

#include "kv/command.h"

namespace praft::kv {

/// Result of applying one command to the store.
struct ApplyResult {
  uint64_t value = 0;   // for kGet: current value token (0 if absent)
  uint64_t version = 0; // store version of the key after the operation
};

/// Serialized state-machine image: the payload of a consensus snapshot
/// (checkpoint-driven log compaction ships these instead of replaying the
/// log). Cells are sorted by key so equal states serialize identically.
struct StoreImage {
  struct Cell {
    uint64_t key = 0;
    uint64_t value = 0;
    uint64_t version = 0;

    template <class M, class F>
    static void fields(M& m, F&& f) { f(m.key, m.value, m.version); }

    friend bool operator==(const Cell&, const Cell&) = default;
  };
  std::vector<Cell> cells;
  uint64_t applied_count = 0;

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.applied_count, m.cells); }

  friend bool operator==(const StoreImage&, const StoreImage&) = default;
};

/// The replicated state machine: a key -> (value token, version) map.
/// Deterministic and side-effect free; every replica applies the same command
/// sequence and must reach the same state (checked in tests by fingerprint).
///
/// Storage is one flat open-addressing table (power-of-two slots, linear
/// probing over a mixed key): every replica of every group holds the whole
/// key space, so a node per key would cost a cache miss per apply. Keys are
/// never erased — only restore() rebuilds — so probing needs no tombstones.
/// A slot is empty iff its version is 0: a stored key has been put at least
/// once, so its version is >= 1, and key 0 (the workload's hot key) needs no
/// reserved sentinel.
class KvStore {
 public:
  ApplyResult apply(const Command& cmd);

  /// Point read without going through the log (used by lease-based local
  /// reads; the *protocol* is responsible for deciding when this is legal).
  [[nodiscard]] uint64_t read_local(uint64_t key) const;

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] uint64_t applied_count() const { return applied_; }

  /// Order-insensitive fingerprint of the full state; equal states hash equal.
  [[nodiscard]] uint64_t fingerprint() const;

  /// Serializes the full state (sorted by key — deterministic across
  /// replicas holding equal states).
  [[nodiscard]] StoreImage image() const;

  /// Replaces the full state with `img` (snapshot install). The previous
  /// contents are discarded: the image IS the state after the covered prefix.
  void restore(const StoreImage& img);

 private:
  struct Slot {
    uint64_t key = 0;
    uint64_t value = 0;
    uint64_t version = 0;  // 0 = empty slot
  };

  /// Position of the slot holding `key`, or of the empty slot where it
  /// would go. Requires a non-empty table.
  [[nodiscard]] size_t slot_of(uint64_t key) const;
  /// The slot holding `key`, or nullptr.
  [[nodiscard]] const Slot* find(uint64_t key) const;
  /// Moves every stored key into a fresh table of `capacity` slots.
  void rehash(size_t capacity);

  std::vector<Slot> slots_;  // empty until the first put
  size_t size_ = 0;          // occupied slots, kept <= 3/4 of slots_
  uint64_t applied_ = 0;
};

}  // namespace praft::kv
