#pragma once

#include <any>
#include <vector>

#include "common/function.h"
#include "common/rng.h"
#include "consensus/env.h"
#include "net/packet.h"

namespace praft::test {

/// A hand-cranked Env for unit-testing protocol nodes without a network:
/// sent messages accumulate in `outbox`, timers fire only when the test
/// advances time. Deterministic and fully inspectable.
class ScriptedEnv final : public consensus::Env {
 public:
  struct Sent {
    NodeId to;
    std::any payload;
  };

  explicit ScriptedEnv(uint64_t seed = 1) : rng_(seed) {}

  [[nodiscard]] Time now() const override { return now_; }

  void send(NodeId to, std::any payload) override {
    outbox.push_back(Sent{to, std::move(payload)});
  }

  void schedule(Duration delay, UniqueFunction<void()> fn) override {
    timers_.push_back({now_ + delay, next_timer_seq_++, std::move(fn)});
  }

  uint64_t random() override { return rng_.next(); }

  /// Advances the clock, firing due timers ordered by (deadline, creation):
  /// equal deadlines fire in the order they were scheduled — including
  /// timers created by a firing timer — matching sim::EventQueue's FIFO
  /// tie-break so unit-level runs replay like full-simulator runs.
  void advance(Duration d) {
    const Time target = now_ + d;
    while (true) {
      size_t best = timers_.size();
      for (size_t i = 0; i < timers_.size(); ++i) {
        if (timers_[i].at > target) continue;
        if (best == timers_.size() || timers_[i].at < timers_[best].at ||
            (timers_[i].at == timers_[best].at &&
             timers_[i].seq < timers_[best].seq)) {
          best = i;
        }
      }
      if (best == timers_.size()) break;
      auto t = std::move(timers_[best]);
      timers_.erase(timers_.begin() + static_cast<long>(best));
      now_ = t.at;
      t.fn();
    }
    now_ = target;
  }

  /// Messages sent to `to`, drained from the outbox.
  std::vector<Sent> take_for(NodeId to) {
    std::vector<Sent> out;
    std::vector<Sent> keep;
    for (auto& s : outbox) {
      if (s.to == to) {
        out.push_back(std::move(s));
      } else {
        keep.push_back(std::move(s));
      }
    }
    outbox = std::move(keep);
    return out;
  }

  void clear() { outbox.clear(); }

  std::vector<Sent> outbox;

 private:
  struct Timer {
    Time at;
    uint64_t seq;  // insertion order: the explicit tie-break for equal `at`
    UniqueFunction<void()> fn;
  };
  Time now_ = 0;
  Rng rng_;
  uint64_t next_timer_seq_ = 0;
  std::vector<Timer> timers_;
};

}  // namespace praft::test
