#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"

namespace praft::net {

class BufferPool;

/// RAII handle to one pooled byte buffer. Move-only: it returns its slab to
/// the pool's freelist on destruction, so steady-state encode cycles reuse
/// the same memory instead of allocating. A default-constructed Frame is
/// null (valid() == false).
class Frame {
 public:
  Frame() = default;
  Frame(Frame&& o) noexcept
      : pool_(std::exchange(o.pool_, nullptr)),
        slab_(std::exchange(o.slab_, nullptr)),
        size_(std::exchange(o.size_, 0)) {}
  Frame& operator=(Frame&& o) noexcept {
    if (this != &o) {
      release();
      pool_ = std::exchange(o.pool_, nullptr);
      slab_ = std::exchange(o.slab_, nullptr);
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }
  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;
  ~Frame() { release(); }

  [[nodiscard]] bool valid() const { return slab_ != nullptr; }
  [[nodiscard]] uint8_t* data() { return slab_->data(); }
  [[nodiscard]] const uint8_t* data() const { return slab_->data(); }
  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] size_t capacity() const {
    return slab_ == nullptr ? 0 : slab_->size();
  }

  /// Sets the number of meaningful bytes (the encoded frame length).
  void set_size(size_t n) {
    PRAFT_CHECK(slab_ != nullptr && n <= slab_->size());
    size_ = n;
  }

  /// Returns the slab to the pool early; the Frame becomes null.
  void release();

 private:
  friend class BufferPool;
  Frame(BufferPool* pool, std::vector<uint8_t>* slab)
      : pool_(pool), slab_(slab) {}

  BufferPool* pool_ = nullptr;
  std::vector<uint8_t>* slab_ = nullptr;
  size_t size_ = 0;
};

struct PoolStats {
  size_t preallocated = 0;   // slabs created eagerly at construction
  uint64_t acquires = 0;     // total acquire() calls
  uint64_t reuses = 0;       // acquires served from the freelist
  uint64_t slab_allocs = 0;  // slabs heap-allocated because the freelist ran dry
  uint64_t slab_grows = 0;   // slab capacity bumps for oversize frames
  size_t outstanding = 0;    // frames currently held by callers
  size_t high_water = 0;     // max outstanding ever observed
};

/// Preallocated frame pool with freelist reuse. acquire() hands out a slab of
/// at least the requested capacity; once warm (every slab grown to the
/// workload's largest frame, freelist as deep as the most frames held at
/// once) the encode path performs zero heap allocations — asserted by the
/// micro-benchmarks with a global allocation counter. sim::Network holds
/// one frame at a time, so its pool keeps a single slab.
class BufferPool {
 public:
  explicit BufferPool(size_t frames = 64, size_t frame_capacity = 4096)
      : init_frames_(frames), frame_capacity_(frame_capacity) {
    preallocate();
  }
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  ~BufferPool() {
    // Outliving Frames would return slabs to a dead pool; catch that in debug.
    PRAFT_CHECK(stats_.outstanding == 0);
  }

  [[nodiscard]] Frame acquire(size_t capacity) {
    ++stats_.acquires;
    std::vector<uint8_t>* slab = nullptr;
    if (!free_.empty()) {
      slab = free_.back();
      free_.pop_back();
      ++stats_.reuses;
    } else {
      slabs_.push_back(std::make_unique<std::vector<uint8_t>>(
          std::max(capacity, frame_capacity_)));
      slab = slabs_.back().get();
      ++stats_.slab_allocs;
    }
    if (slab->size() < capacity) {
      slab->resize(capacity);
      ++stats_.slab_grows;
    }
    ++stats_.outstanding;
    stats_.high_water = std::max(stats_.high_water, stats_.outstanding);
    return Frame(this, slab);
  }

  /// Drops every slab and re-preallocates the initial configuration. Only
  /// legal when no Frames are outstanding.
  void reset() {
    PRAFT_CHECK(stats_.outstanding == 0);
    free_.clear();
    slabs_.clear();
    stats_ = PoolStats{};
    preallocate();
  }

  [[nodiscard]] const PoolStats& stats() const { return stats_; }
  [[nodiscard]] size_t free_frames() const { return free_.size(); }

 private:
  friend class Frame;
  void put_back(std::vector<uint8_t>* slab) {
    PRAFT_CHECK(stats_.outstanding > 0);
    --stats_.outstanding;
    free_.push_back(slab);
  }

  void preallocate() {
    stats_.preallocated = init_frames_;
    slabs_.reserve(init_frames_);
    free_.reserve(init_frames_);
    for (size_t i = 0; i < init_frames_; ++i) {
      slabs_.push_back(
          std::make_unique<std::vector<uint8_t>>(frame_capacity_));
      free_.push_back(slabs_.back().get());
    }
  }

  size_t init_frames_;
  size_t frame_capacity_;
  std::vector<std::unique_ptr<std::vector<uint8_t>>> slabs_;  // stable addrs
  std::vector<std::vector<uint8_t>*> free_;
  PoolStats stats_;
};

inline void Frame::release() {
  if (pool_ != nullptr) pool_->put_back(slab_);
  pool_ = nullptr;
  slab_ = nullptr;
  size_ = 0;
}

}  // namespace praft::net
