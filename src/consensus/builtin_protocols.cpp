// Registers the four in-repo protocols with the runtime registry. This is
// the one deliberate upward dependency from the consensus runtime layer onto
// the protocol deltas: the registry machinery itself (registry.cpp) stays
// protocol-agnostic, and anything else can register additional protocols at
// static-init or run time via ProtocolRegistry::add.
#include "consensus/registry.h"
#include "mencius/node.h"
#include "paxos/node.h"
#include "raft/node.h"
#include "raftstar/node.h"

namespace praft::consensus::detail {

namespace {

/// Builds a protocol-specific Options struct (which inherits TimingOptions)
/// from the shared timing knobs, leaving protocol extras at their defaults.
template <typename Opt>
Opt options_from(const TimingOptions& timing) {
  Opt o;
  static_cast<TimingOptions&>(o) = timing;
  return o;
}

}  // namespace

void register_builtin_protocols(ProtocolRegistry& reg) {
  reg.add("raft", [](Group g, Env& env, const TimingOptions& t,
                     storage::DurableStore* store) {
    return std::make_unique<raft::RaftNode>(std::move(g), env,
                                            options_from<raft::Options>(t),
                                            store);
  });
  reg.add("raftstar", [](Group g, Env& env, const TimingOptions& t,
                         storage::DurableStore* store) {
    return std::make_unique<raftstar::RaftStarNode>(
        std::move(g), env, options_from<raftstar::Options>(t), store);
  });
  reg.add("multipaxos", [](Group g, Env& env, const TimingOptions& t,
                           storage::DurableStore* store) {
    return std::make_unique<paxos::PaxosNode>(std::move(g), env,
                                              options_from<paxos::Options>(t),
                                              store);
  });
  // Registry-selected Mencius runs behind the plain LogServer, which
  // replies when an op applies. The early ack (commit + commutativity
  // check) is mencius::MenciusServer: a LogServer over MenciusNode whose
  // request hook proposes locally and replies on the node's ack
  // (SystemKind::kRaftStarMencius). Acking early here too would move every
  // registry-built Mencius trajectory (chaos fingerprints, BENCH_pipeline
  // rows), so it is not the default. Safe and convergent either way;
  // measurement-grade latencies come from MenciusServer.
  reg.add("mencius", [](Group g, Env& env, const TimingOptions& t,
                        storage::DurableStore* store) {
    return std::make_unique<mencius::MenciusNode>(
        std::move(g), env, options_from<mencius::Options>(t), store);
  });
}

}  // namespace praft::consensus::detail
