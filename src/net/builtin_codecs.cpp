#include "harness/wire.h"
#include "lease/wire.h"
#include "mencius/wire.h"
#include "net/field_codec.h"
#include "net/wire.h"
#include "paxos/wire.h"
#include "raft/wire.h"
#include "raftstar/wire.h"

namespace praft::net {

// Explicit installation instead of static registrar objects: a static praft
// library would silently drop unreferenced registrar TUs at link time. Every
// size entry is net::wire_size's variant overload, the fields-list
// derivation encode() checks itself against.
void install_builtin_codecs(CodecRegistry& reg) {
  register_codec<raft::Message>(reg, Family::kRaft, &wire_size, &raft::encode,
                                &raft::decode);
  register_codec<raftstar::Message>(reg, Family::kRaftStar, &wire_size,
                                    &raftstar::encode, &raftstar::decode);
  register_codec<paxos::Message>(reg, Family::kMultiPaxos, &wire_size,
                                 &paxos::encode, &paxos::decode);
  register_codec<mencius::Message>(reg, Family::kMencius, &wire_size,
                                   &mencius::encode, &mencius::decode);
  register_codec<harness::Message>(reg, Family::kHarness, &wire_size,
                                   &harness::encode, &harness::decode);
  register_codec<lease::Message>(reg, Family::kLease, &wire_size,
                                 &lease::encode, &lease::decode);
}

}  // namespace praft::net
