#pragma once

#include <functional>

#include "harness/host.h"
#include "harness/messages.h"
#include "harness/metrics.h"
#include "kv/workload.h"

namespace praft::harness {

/// Closed-loop client options (separate type so defaults are complete at the
/// point of use as a default argument).
struct ClientOptions {
  Time start_at = 0;
  Duration retry_timeout = sec(5);
};

/// Closed-loop client (§5 Workload): issues one request, waits for the reply,
/// records latency, immediately issues the next. A retry timer guards against
/// requests lost to leader changes or injected faults. `route` picks each
/// command's destination: a fixed replica in a flat cluster, the owning
/// group's contact in a sharded one.
class ClosedLoopClient final : public PacketHandler {
 public:
  using Options = ClientOptions;
  using Route = std::function<NodeId(const kv::Command&)>;

  ClosedLoopClient(NodeHost& host, Route route, kv::WorkloadGenerator gen,
                   Metrics& metrics, Options opt = {});

  void start();
  /// Stops issuing new requests (in-flight request is abandoned).
  void stop() { stopped_ = true; }
  void handle(const net::Packet& p) override;

  /// Trace hook: observes every accepted reply (the client-visible history —
  /// linearizability checkers record (invocation, response) pairs here).
  using ReplyProbe = std::function<void(const kv::Command& cmd, uint64_t value,
                                        bool ok, Time sent_at, Time recv_at)>;
  void set_reply_probe(ReplyProbe probe) { reply_probe_ = std::move(probe); }

  [[nodiscard]] uint64_t completed() const { return completed_; }
  [[nodiscard]] uint64_t retries() const { return retries_; }

 private:
  void issue_next();
  void transmit();
  void arm_retry(uint64_t seq);

  NodeHost& host_;
  Route route_;
  kv::WorkloadGenerator gen_;
  Metrics& metrics_;
  Options opt_;

  kv::Command current_;
  Time sent_at_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t completed_ = 0;
  uint64_t retries_ = 0;
  bool in_flight_ = false;
  bool stopped_ = false;
  ReplyProbe reply_probe_;
};

}  // namespace praft::harness
