#pragma once

#include <functional>

#include "common/rng.h"
#include "consensus/env.h"
#include "net/packet.h"
#include "sim/network.h"
#include "sim/resources.h"
#include "sim/simulator.h"

namespace praft::harness {

/// Receives packets (after CPU-cost accounting) from a NodeHost.
class PacketHandler {
 public:
  virtual ~PacketHandler() = default;
  virtual void handle(const net::Packet& p) = 0;
  /// CPU service time to process this packet (0 = free).
  [[nodiscard]] virtual Duration cost_of(const net::Packet& p) const {
    (void)p;
    return 0;
  }
};

/// Binds one simulated machine: a network endpoint, a serial CPU and the
/// sans-io Env a protocol node talks to. Delivery order: network -> CPU
/// queue (service time from the handler's cost model) -> handle(). A crash
/// destroys the node, not its host, so the Env's Stats block counts every
/// incarnation of the replica.
///
/// A host normally owns its CPU (one endpoint == one machine). When
/// `shared_cpu` is supplied, service time is billed against that external
/// resource instead — several endpoints then contend for one serial CPU,
/// which is how the shard layer models multiple consensus-group replicas
/// co-located on one physical machine.
class NodeHost final : public consensus::Env {
 public:
  NodeHost(sim::Simulator& sim, sim::Network& net, SiteId site,
           double egress_bytes_per_us = 0.0,
           sim::SerialResource* shared_cpu = nullptr);

  void attach(PacketHandler* handler) { handler_ = handler; }
  /// Unbinds the handler (packets in flight are dropped, like a crash).
  void detach() { handler_ = nullptr; }

  /// Crash support: invalidates every callback scheduled through this Env so
  /// far — they become no-ops when the simulator fires them. Called by
  /// ReplicaGroup::crash before destroying the node object, so timer and
  /// fsync-completion closures can never touch freed protocol state.
  void invalidate_scheduled() { ++sched_epoch_; }

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] SiteId site() const { return site_; }
  [[nodiscard]] Duration cpu_busy() const { return cpu_res_->busy_time(); }

  // consensus::Env
  [[nodiscard]] Time now() const override { return sim_.now(); }
  void send(NodeId to, std::any payload, size_t bytes) override {
    net_.send(id_, to, std::move(payload), bytes);
  }
  void schedule(Duration delay, std::function<void()> fn) override {
    sim_.after(delay, [this, epoch = sched_epoch_, fn = std::move(fn)] {
      if (epoch == sched_epoch_) fn();
    });
  }
  uint64_t random() override { return rng_.next(); }

 private:
  void deliver(net::Packet&& p);

  sim::Simulator& sim_;
  sim::Network& net_;
  SiteId site_;
  NodeId id_;
  Rng rng_;
  sim::SerialResource cpu_;            // owned CPU (the default)
  sim::SerialResource* cpu_res_;       // &cpu_, or the shared machine CPU
  PacketHandler* handler_ = nullptr;
  uint64_t sched_epoch_ = 0;
};

}  // namespace praft::harness
