#include "raftstar/wire.h"

#include "net/field_codec.h"

namespace praft::raftstar {

net::Frame encode(const Message& m, net::BufferPool& pool) {
  return net::encode(net::Family::kRaftStar, m, pool);
}

Message decode(net::FrameView f) {
  return net::decode<Message>(net::Family::kRaftStar, f);
}

}  // namespace praft::raftstar
