#pragma once

#include <any>
#include <cstddef>
#include <functional>

#include "common/types.h"

namespace praft::net {

/// A message in flight. The payload is type-erased so one network stack can
/// carry every protocol's message set; `bytes` is the exact encoded wire
/// size used for bandwidth/CPU accounting. The encoded frame itself does not
/// travel: sim::Network encodes each message at send to check its size (and,
/// under PRAFT_WIRE_VERIFY, its round trip) and returns the frame to its
/// pool before the delivery is scheduled.
struct Packet {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  size_t bytes = 0;
  std::any payload;
};

/// Delivery callback a node registers with the network.
using DeliverFn = std::function<void(Packet&&)>;

/// Convenience: extract a concrete message type from a packet payload.
/// Returns nullptr when the payload holds a different type.
template <typename M>
const M* payload_as(const Packet& p) {
  return std::any_cast<M>(&p.payload);
}

}  // namespace praft::net
