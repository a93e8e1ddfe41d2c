#pragma once

#include <memory>

#include "common/check.h"
#include "common/rng.h"
#include "consensus/env.h"
#include "net/packet.h"
#include "sim/network.h"
#include "sim/resources.h"
#include "sim/simulator.h"
#include "storage/wal.h"

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
/// incarnation of the replica, and a replica's stable store, which the host
/// owns (make_store), is what a rebuilt node recovers from.
///
/// A host owns its CPU unless `shared_cpu` is supplied; service time is then
/// billed against that external resource, and every endpoint given the same
/// one contends for it. harness::Cluster passes each replica its machine's
/// CPU, so the replicas of several groups placed on one machine share it
/// (one tenant bills exactly what an owned CPU would); clients own theirs.
class NodeHost final : public consensus::Env {
 public:
  NodeHost(sim::Simulator& sim, sim::Network& net, SiteId site,
           double egress_bytes_per_us = 0.0,
           sim::SerialResource* shared_cpu = nullptr);

  void attach(PacketHandler* handler) { handler_ = handler; }
  /// Unbinds the handler (packets in flight are dropped, like a crash).
  void detach() { handler_ = nullptr; }

  /// Gives this host a storage::DurableStore of its own and points the Env
  /// at it (consensus::Env::store). Call once, before building a node here.
  void make_store() {
    PRAFT_CHECK_MSG(disk_ == nullptr, "host already has a store");
    disk_ = std::make_unique<storage::DurableStore>();
    set_store(disk_.get());
  }

  /// Crash support: invalidates every callback scheduled through this Env so
  /// far, and every packet still waiting in the CPU queue — they become
  /// no-ops when the simulator fires them. Called by ReplicaGroup::crash
  /// before destroying the node object, so timer and fsync-completion
  /// closures can never touch freed protocol state, and a node rebuilt on
  /// this host never handles what its predecessor received.
  void invalidate_scheduled() { ++sched_epoch_; }

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] SiteId site() const { return site_; }
  [[nodiscard]] Duration cpu_busy() const { return cpu_res_->busy_time(); }

  // consensus::Env
  [[nodiscard]] Time now() const override { return sim_.now(); }
  void send(NodeId to, std::any payload, size_t bytes) override {
    net_.send(id_, to, std::move(payload), bytes);
  }
  void schedule(Duration delay, UniqueFunction<void()> fn) override {
    auto timer = [this, epoch = sched_epoch_, fn = std::move(fn)] {
      if (epoch == sched_epoch_) fn();
    };
    static_assert(sim::EventQueue::fits_in_cell<decltype(timer)>);
    sim_.after(delay, std::move(timer));
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
  std::unique_ptr<storage::DurableStore> disk_;
};

}  // namespace praft::harness
