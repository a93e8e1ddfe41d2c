#pragma once

// Bench-side clients and their ledger: the one source of client latency,
// throughput and attempted/failed accounting for every workload.
//
// The library's clients (harness::ClosedLoopClient, shard::ShardClient)
// restart an op's clock on every retry, so a retried op reports only its last
// attempt. These clients time every op from when it was due — the first
// send in a closed loop, the schedule slot in an open loop — however many
// times it is resent.

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "harness/host.h"
#include "harness/messages.h"
#include "kv/workload.h"
#include "stats.h"

namespace praft::pbench {

/// Every op the clients issue and every reply they accept.
class Ledger {
 public:
  /// Replies that count toward throughput arrive in [start, end). Latency
  /// samples are the ops replied in the window (closed loop) or the ops due
  /// in it (open loop, `by_due`), so an open loop also times the ops that
  /// fell due while nothing could serve them.
  void set_window(Time start, Time end, bool by_due) {
    start_ = start;
    end_ = end;
    by_due_ = by_due;
  }
  /// The longest reply gap is tracked for replies at or after `from`.
  void set_gap_origin(Time from) { gap_from_ = from; }

  /// Observes each accepted reply: (command, due, reply time, sampled).
  using Observer =
      std::function<void(const kv::Command&, Time due, Time now, bool sampled)>;
  void set_observer(Observer o) { observer_ = std::move(o); }

  void issued() { ++attempted_; }

  void replied(const kv::Command& cmd, const harness::ClientReply& r, Time due,
               Time now) {
    ++replied_;
    hash_ = fold(hash_, static_cast<uint64_t>(cmd.client));
    hash_ = fold(hash_, cmd.seq);
    hash_ = fold(hash_, r.value ^ (r.ok ? 1ull << 63 : 0));
    hash_ = fold(hash_, static_cast<uint64_t>(now));
    if (now >= start_ && now < end_) ++window_replies_;
    if (now >= gap_from_ && now < end_ && last_reply_ >= 0) {
      max_gap_ = std::max(max_gap_, now - std::max(last_reply_, gap_from_));
    }
    last_reply_ = now;
    const Time t = by_due_ ? due : now;
    const bool sampled = t >= start_ && t < end_;
    if (sampled) (cmd.is_read() ? reads_ : writes_).push_back(now - due);
    if (observer_) observer_(cmd, due, now, sampled);
  }

  [[nodiscard]] uint64_t attempted() const { return attempted_; }
  [[nodiscard]] uint64_t replied() const { return replied_; }
  [[nodiscard]] uint64_t window_replies() const { return window_replies_; }
  [[nodiscard]] Duration max_gap() const { return max_gap_; }
  [[nodiscard]] uint64_t reply_hash() const { return hash_; }
  std::vector<int64_t>& reads() { return reads_; }
  std::vector<int64_t>& writes() { return writes_; }

 private:
  Time start_ = 0;
  Time end_ = kTimeMax;
  bool by_due_ = false;
  Time gap_from_ = kTimeMax;
  Time last_reply_ = -1;
  Duration max_gap_ = 0;
  uint64_t attempted_ = 0;
  uint64_t replied_ = 0;
  uint64_t window_replies_ = 0;
  uint64_t hash_ = 0;
  std::vector<int64_t> reads_;
  std::vector<int64_t> writes_;
  Observer observer_;
};

/// A client endpoint. Closed loop (`period == 0`): one op outstanding, the
/// next one due the moment the reply lands. Open loop: one op due every
/// `period` whatever is outstanding. Either way an unanswered op is resent
/// every `resend_after`, to `route(cmd, attempt)`.
class BenchClient final : public harness::PacketHandler {
 public:
  using Route = std::function<NodeId(const kv::Command&, int attempt)>;
  struct Options {
    Time start_at = 0;
    Duration offset = 0;  // this client's first op is due at start_at+offset
    Duration period = 0;
    Duration resend_after = sec(5);
  };

  BenchClient(harness::NodeHost& host, kv::WorkloadGenerator gen, Route route,
              Ledger& ledger, Options opt)
      : host_(host), gen_(std::move(gen)), route_(std::move(route)),
        ledger_(ledger), opt_(opt) {
    host_.attach(this);
  }

  void start() {
    const Duration delay =
        opt_.start_at > host_.now() ? opt_.start_at - host_.now() : 0;
    host_.schedule(delay + opt_.offset, [this] { due(); });
  }
  /// Stops issuing new ops; outstanding ones are still resent and answered.
  void stop_issuing() { issuing_ = false; }
  /// Stops all traffic (quiescence for the convergence check).
  void halt() {
    issuing_ = false;
    halted_ = true;
  }

  void handle(const net::Packet& p) override {
    const auto* msg = net::payload_as<harness::Message>(p);
    if (msg == nullptr) return;
    const auto* reply = std::get_if<harness::ClientReply>(msg);
    if (reply == nullptr) return;
    auto it = pending_.find(reply->seq);
    if (it == pending_.end()) return;  // a resend's duplicate answer
    const Pending op = it->second;
    pending_.erase(it);
    ledger_.replied(op.cmd, *reply, op.due, host_.now());
    if (opt_.period == 0) due();
  }

  [[nodiscard]] uint64_t resends() const { return resends_; }

 private:
  struct Pending {
    kv::Command cmd;
    Time due = 0;
    int attempt = 0;
  };

  void due() {
    if (!issuing_) return;
    const uint64_t seq = next_seq_++;
    pending_[seq] = Pending{gen_.next(host_.id(), seq), host_.now(), 0};
    ledger_.issued();
    transmit(seq);
    if (opt_.period > 0) host_.schedule(opt_.period, [this] { due(); });
  }

  void transmit(uint64_t seq) {
    const Pending& op = pending_.at(seq);
    harness::ClientRequest req{op.cmd};
    host_.send(route_(op.cmd, op.attempt), harness::Message{req},
               harness::wire_size(req));
    host_.schedule(opt_.resend_after, [this, seq, attempt = op.attempt] {
      auto it = pending_.find(seq);
      if (halted_ || it == pending_.end() || it->second.attempt != attempt) {
        return;
      }
      ++it->second.attempt;
      ++resends_;
      transmit(seq);
    });
  }

  harness::NodeHost& host_;
  kv::WorkloadGenerator gen_;
  Route route_;
  Ledger& ledger_;
  Options opt_;
  std::map<uint64_t, Pending> pending_;  // by seq
  uint64_t next_seq_ = 1;
  uint64_t resends_ = 0;
  bool issuing_ = true;
  bool halted_ = false;
};

}  // namespace praft::pbench
