#include "lease/wire.h"

#include "net/field_codec.h"

namespace praft::lease {

net::Frame encode(const Message& m, net::BufferPool& pool) {
  return net::encode(net::Family::kLease, m, pool);
}

Message decode(net::FrameView f) {
  return net::decode<Message>(net::Family::kLease, f);
}

}  // namespace praft::lease
