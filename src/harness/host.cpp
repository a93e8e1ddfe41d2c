#include "harness/host.h"

#include <memory>

namespace praft::harness {

NodeHost::NodeHost(sim::Simulator& sim, sim::Network& net, SiteId site,
                   double egress_bytes_per_us, sim::SerialResource* shared_cpu)
    : sim_(sim), net_(net), site_(site), rng_(sim.rng().split()),
      cpu_res_(shared_cpu != nullptr ? shared_cpu : &cpu_) {
  id_ = net_.add_node(site, [this](net::Packet&& p) { deliver(std::move(p)); },
                      egress_bytes_per_us);
}

void NodeHost::deliver(net::Packet&& p) {
  if (handler_ == nullptr) return;
  const Duration cost = handler_->cost_of(p);
  if (cost <= 0) {
    handler_->handle(p);
    return;
  }
  const Time done = cpu_res_->enqueue(sim_.now(), cost);
  // The packet waits in the CPU queue; processing completes at `done`, for
  // the incarnation that received it only (a crash in between drops it, as
  // it drops the incarnation's timers). The closure owns the packet outright
  // and fits its event cell, so no heap allocation rides the hot path.
  auto handle = [this, epoch = sched_epoch_, pkt = std::move(p)] {
    if (epoch == sched_epoch_ && handler_ != nullptr) handler_->handle(pkt);
  };
  static_assert(sim::EventQueue::fits_in_cell<decltype(handle)>);
  sim_.at(done, std::move(handle));
}

}  // namespace praft::harness
