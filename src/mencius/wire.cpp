#include "mencius/wire.h"

#include "net/field_codec.h"

namespace praft::mencius {

net::Frame encode(const Message& m, net::BufferPool& pool) {
  return net::encode(net::Family::kMencius, m, pool);
}

Message decode(net::FrameView f) {
  return net::decode<Message>(net::Family::kMencius, f);
}

}  // namespace praft::mencius
