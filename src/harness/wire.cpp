#include "harness/wire.h"

#include "net/field_codec.h"

namespace praft::harness {

net::Frame encode(const Message& m, net::BufferPool& pool) {
  return net::encode(net::Family::kHarness, m, pool);
}

Message decode(net::FrameView f) {
  return net::decode<Message>(net::Family::kHarness, f);
}

}  // namespace praft::harness
