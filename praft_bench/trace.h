#pragma once

// The traced pass: the apply probe joined with client timestamps, a tap
// counting replication batches, and the spans both produce. Everything here
// only observes — a traced run follows the same simulated trajectory as an
// untraced one, which the benchmark checks.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "client.h"
#include "harness/server.h"
#include "json.h"
#include "micro.h"
#include "stats.h"

namespace praft::pbench {

/// Sits between a replica's host and its server, counting the replication
/// messages the replica receives and the entries they carry. Forwards cost
/// and delivery unchanged.
class ReplicationTap final : public harness::PacketHandler {
 public:
  ReplicationTap(harness::ReplicaServer& inner, Family fam, uint64_t& msgs,
                 uint64_t& entries)
      : inner_(inner), fam_(fam), msgs_(msgs), entries_(entries) {
    inner_.host().attach(this);
  }
  void handle(const net::Packet& p) override {
    if (const size_t n = replication_entries(fam_, p)) {
      ++msgs_;
      entries_ += n;
    }
    inner_.handle(p);
  }
  [[nodiscard]] Duration cost_of(const net::Packet& p) const override {
    return inner_.cost_of(p);
  }

 private:
  harness::ReplicaServer& inner_;
  Family fam_;
  uint64_t& msgs_;
  uint64_t& entries_;
};

/// Collected spans, one JSON object each.
class Spans {
 public:
  explicit Spans(std::string workload) : workload_(std::move(workload)) {}
  void add(const std::string& id, const std::string& parent,
           const std::string& name, const char* clock, double start_us,
           double end_us) {
    JsonObject o;
    o.str("workload", workload_).str("id", id);
    if (parent.empty()) {
      o.raw("parent", "null");
    } else {
      o.str("parent", parent);
    }
    o.str("name", name).str("clock", clock).num("start_us", start_us).num(
        "end_us", end_us);
    lines_.push_back(o.text());
  }
  [[nodiscard]] const std::vector<std::string>& lines() const {
    return lines_;
  }

 private:
  std::string workload_;
  std::vector<std::string> lines_;
};

/// Joins every replica's applies with the clients' replies by (client, seq)
/// and splits each sampled write into stages, in sim time:
///   order     due -> first apply on any replica
///   reply     first apply -> reply (negative when a protocol acks early)
///   replicate first apply -> last apply on a replica that was up throughout
class StageTracer {
 public:
  /// Spans are kept for one op in `kSpanEvery` (by client seq).
  static constexpr uint64_t kSpanEvery = 64;

  void on_apply(NodeId replica, const kv::Command& c, Time now) {
    if (c.client == kNoNode) return;  // no-ops, skips
    auto [it, fresh] = applies_.try_emplace(key(c), Apply{now, now});
    if (fresh) return;
    Apply& a = it->second;
    const auto inc = incarnation_.find(replica);
    const Time since = inc == incarnation_.end() ? 0 : inc->second;
    if (since <= a.first) a.last = std::max(a.last, now);
  }
  /// A restarted replica's applies count only for ops first applied after.
  void restarted(NodeId replica, Time now) { incarnation_[replica] = now; }

  void on_reply(const kv::Command& c, Time due, Time now, bool sampled) {
    if (sampled) {
      replies_.push_back(Reply{c.client, c.seq, c.is_read(), due, now});
    }
  }

  struct Result {
    std::vector<int64_t> order, reply, lag;
    uint64_t reads = 0;
    uint64_t local_reads = 0;
    uint64_t unapplied_writes = 0;
  };

  /// Call after the run has quiesced (followers' applies are in).
  Result join(Spans& spans) const {
    Result r;
    for (const Reply& op : replies_) {
      const auto it = applies_.find(key(op.client, op.seq));
      const bool traced = op.seq % kSpanEvery == 1;
      const std::string id =
          "c" + std::to_string(op.client) + "s" + std::to_string(op.seq);
      if (traced) {
        spans.add(id, "", "client.op", "sim", static_cast<double>(op.due),
                  static_cast<double>(op.reply));
      }
      if (op.read) {
        ++r.reads;
        if (it == applies_.end()) ++r.local_reads;
        continue;
      }
      if (it == applies_.end()) {
        ++r.unapplied_writes;
        continue;
      }
      const Apply& a = it->second;
      r.order.push_back(a.first - op.due);
      r.reply.push_back(op.reply - a.first);
      r.lag.push_back(a.last - a.first);
      if (traced) {
        spans.add(id + ".order", id, "stage.order", "sim",
                  static_cast<double>(op.due), static_cast<double>(a.first));
        spans.add(id + ".reply", id, "stage.reply", "sim",
                  static_cast<double>(a.first), static_cast<double>(op.reply));
        spans.add(id + ".replicate", id, "stage.replicate", "sim",
                  static_cast<double>(a.first), static_cast<double>(a.last));
      }
    }
    return r;
  }

 private:
  struct Apply {
    Time first;
    Time last;
  };
  struct Reply {
    NodeId client;
    uint64_t seq;
    bool read;
    Time due;
    Time reply;
  };
  static uint64_t key(NodeId client, uint64_t seq) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(client)) << 40) ^ seq;
  }
  static uint64_t key(const kv::Command& c) { return key(c.client, c.seq); }

  std::unordered_map<uint64_t, Apply> applies_;
  std::unordered_map<NodeId, Time> incarnation_;
  std::vector<Reply> replies_;
};

}  // namespace praft::pbench
