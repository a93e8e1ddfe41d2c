#include "paxos/wire.h"

#include "net/field_codec.h"

namespace praft::paxos {

net::Frame encode(const Message& m, net::BufferPool& pool) {
  return net::encode(net::Family::kMultiPaxos, m, pool);
}

Message decode(net::FrameView f) {
  return net::decode<Message>(net::Family::kMultiPaxos, f);
}

}  // namespace praft::paxos
