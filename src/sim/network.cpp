#include "sim/network.h"

#include <utility>

#include "common/check.h"

namespace praft::sim {

Network::Network(Simulator& sim, LatencyMatrix latency)
    : sim_(sim), latency_(std::move(latency)), pool_(1) {}

NodeId Network::add_node(SiteId site, net::DeliverFn deliver,
                         double egress_bytes_per_us) {
  PRAFT_CHECK(site >= 0 && site < latency_.num_sites());
  PRAFT_CHECK(deliver != nullptr);
  nodes_.push_back(Node{site, std::move(deliver),
                        EgressLink(egress_bytes_per_us), {}});
  return static_cast<NodeId>(nodes_.size() - 1);
}

SiteId Network::site_of(NodeId n) const {
  PRAFT_CHECK(n >= 0 && n < num_nodes());
  return nodes_[static_cast<size_t>(n)].site;
}

Duration Network::egress_busy(NodeId n) const {
  PRAFT_CHECK(n >= 0 && n < num_nodes());
  return nodes_[static_cast<size_t>(n)].egress.busy_time();
}

bool Network::usable(NodeId n, Time t) const {
  if (n < 0 || n >= num_nodes()) return false;
  return !faults_.is_down(n, t);
}

void Network::send(NodeId from, NodeId to, std::any payload, size_t bytes) {
  const Time now = sim_.now();

  // Encode through the flat codec when the payload type has one (every
  // protocol message does): the claimed size, which all bandwidth/CPU
  // accounting charges, must be the encoded one. PRAFT_WIRE_VERIFY
  // additionally round-trips the frame back through decode() and compares
  // with the original struct. Nothing downstream reads the frame, so it goes
  // back to the pool here. Encoding consumes no RNG, so trajectories stay
  // seed-deterministic.
  if (const net::Codec* codec = net::codec_registry().find(payload)) {
    const net::Frame frame = codec->encode(payload, pool_);
    PRAFT_CHECK_MSG(frame.size() == bytes,
                    "claimed wire_size != encoded frame size");
    if (net::wire_verify_enabled()) {
      const std::any back = codec->decode(net::view(frame));
      PRAFT_CHECK_MSG(codec->equals(payload, back),
                      "wire round-trip diverged from the original message");
    }
  }

  ++messages_sent_;
  bytes_sent_ += bytes;
  if (!usable(from, now) || to < 0 || to >= num_nodes()) return;
  if (faults_.is_blocked(from, to, now)) return;
  const double drop = faults_.drop_rate_at(now);
  if (drop > 0.0 && sim_.rng().chance(drop)) return;

  auto& src = nodes_[static_cast<size_t>(from)];
  const Time departure = src.egress.enqueue(now, bytes);
  const Duration flight = latency_.one_way(src.site, site_of(to), sim_.rng());
  Time arrival = departure + flight;
  // A reordered message skips the FIFO clamp below and may overtake earlier
  // traffic on its link. The knobs guard every extra RNG draw so the default
  // (all rates 0) consumes exactly the same stream as before they existed.
  const bool reordered = faults_.reorder_rate() > 0.0 &&
                         sim_.rng().chance(faults_.reorder_rate());
  if (!reordered) {
    // FIFO per link: protocols in the paper's testbed ran over TCP streams.
    const auto dst = static_cast<size_t>(to);
    if (dst >= src.last_arrival.size()) src.last_arrival.resize(dst + 1, 0);
    Time& last = src.last_arrival[dst];
    if (arrival <= last) arrival = last + 1;
    last = arrival;
  }

  // A duplicated message is delivered twice: the copy models a spurious
  // retransmission — independent latency draw, no FIFO coupling — and
  // carries a copy of the payload.
  if (faults_.duplicate_rate() > 0.0 &&
      sim_.rng().chance(faults_.duplicate_rate())) {
    const Duration extra = latency_.one_way(src.site, site_of(to), sim_.rng());
    schedule_delivery(from, to, std::any(payload), bytes, departure + extra);
  }

  schedule_delivery(from, to, std::move(payload), bytes, arrival);
}

void Network::schedule_delivery(NodeId from, NodeId to, std::any payload,
                                size_t bytes, Time arrival) {
  // The payload is moved into the scheduled closure, which fits its event
  // cell; delivery re-checks that the destination is alive *at arrival
  // time* (it may crash in flight).
  auto deliver = [this, from, to, bytes,
                  p = std::move(payload)]() mutable {
    if (!usable(to, sim_.now())) return;
    if (faults_.is_blocked(from, to, sim_.now())) return;
    ++messages_delivered_;
    nodes_[static_cast<size_t>(to)].deliver(
        net::Packet{from, to, bytes, std::move(p)});
  };
  static_assert(EventQueue::fits_in_cell<decltype(deliver)>);
  sim_.at(arrival, std::move(deliver));
}

}  // namespace praft::sim
