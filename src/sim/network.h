#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/packet.h"
#include "net/wire.h"
#include "sim/faults.h"
#include "sim/latency.h"
#include "sim/resources.h"
#include "sim/simulator.h"

namespace praft::sim {

/// Geo-distributed message network. Each registered node lives at a site and
/// optionally has a finite-egress NIC. send() models:
///   departure = egress-queue(bytes)          (bandwidth)
///   arrival   = departure + one_way(site_a, site_b)  (latency + jitter)
/// subject to the FaultPlan (drops, partitions, crashes).
class Network {
 public:
  Network(Simulator& sim, LatencyMatrix latency);

  /// Registers a node; returns its id (dense, starting at 0).
  NodeId add_node(SiteId site, net::DeliverFn deliver,
                  double egress_bytes_per_us = 0.0);

  /// Sends `payload` from `from` to `to`, charging `bytes` to bandwidth and
  /// to the receiver's Packet. A protocol message's `bytes` is its codec's
  /// size (harness::NodeHost::send looks it up); raw test payloads, which
  /// have no codec, bring their own. Only the payload travels: by default no
  /// frame is built. Under PRAFT_WIRE_VERIFY a payload with a codec is
  /// encoded into a pooled frame, `bytes` must equal the frame's size, and
  /// the frame round-trips through decode() before it goes back to the pool,
  /// so the pool holds one frame at a time however many messages are in
  /// flight. Self-sends are delivered after the local RTT/2 (loopback still
  /// hops the event queue, never reenters the sender synchronously).
  void send(NodeId from, NodeId to, std::any payload, size_t bytes);

  FaultPlan& faults() { return faults_; }
  [[nodiscard]] const FaultPlan& faults() const { return faults_; }
  [[nodiscard]] const LatencyMatrix& latency() const { return latency_; }
  [[nodiscard]] SiteId site_of(NodeId n) const;
  [[nodiscard]] int num_nodes() const { return static_cast<int>(nodes_.size()); }

  [[nodiscard]] uint64_t messages_sent() const { return messages_sent_; }
  [[nodiscard]] uint64_t messages_delivered() const { return messages_delivered_; }
  [[nodiscard]] uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] Duration egress_busy(NodeId n) const;
  /// The verify-mode frame pool; all zero unless PRAFT_WIRE_VERIFY is on.
  [[nodiscard]] const net::PoolStats& pool_stats() const {
    return pool_.stats();
  }

 private:
  struct Node {
    SiteId site;
    net::DeliverFn deliver;
    EgressLink egress;
    // Per-link FIFO ordering (TCP semantics): jitter may stretch but never
    // reorder a (src, dst) stream. last_arrival[dst] is the latest arrival
    // scheduled on the link to dst; grown on demand, a new link starts at 0.
    std::vector<Time> last_arrival;
  };

  [[nodiscard]] bool usable(NodeId n, Time t) const;
  void schedule_delivery(NodeId from, NodeId to, std::any payload,
                         size_t bytes, Time arrival);

  Simulator& sim_;
  LatencyMatrix latency_;
  FaultPlan faults_;
  net::BufferPool pool_;
  std::vector<Node> nodes_;
  uint64_t messages_sent_ = 0;
  uint64_t messages_delivered_ = 0;
  uint64_t bytes_sent_ = 0;
};

}  // namespace praft::sim
