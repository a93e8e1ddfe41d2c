#include "raft/wire.h"

#include "net/field_codec.h"

namespace praft::raft {

net::Frame encode(const Message& m, net::BufferPool& pool) {
  return net::encode(net::Family::kRaft, m, pool);
}

Message decode(net::FrameView f) {
  return net::decode<Message>(net::Family::kRaft, f);
}

}  // namespace praft::raft
