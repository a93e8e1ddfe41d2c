// The one deliberate upward dependency from the consensus runtime layer onto
// the protocol deltas: the table of the four in-repo protocols. Adding a
// protocol is one row here.
#include "consensus/registry.h"

#include "common/check.h"
#include "mencius/node.h"
#include "paxos/node.h"
#include "raft/node.h"
#include "raftstar/node.h"

namespace praft::consensus {

namespace {

/// Builds a Node whose Options (which inherit TimingOptions) take the shared
/// timing knobs, leaving protocol extras at their defaults.
template <typename Node, typename Opt>
std::unique_ptr<NodeIface> build(Group g, Env& env,
                                 const TimingOptions& timing) {
  Opt o;
  static_cast<TimingOptions&>(o) = timing;
  return std::make_unique<Node>(std::move(g), env, o);
}

struct Protocol {
  const char* name;
  std::unique_ptr<NodeIface> (*make)(Group, Env&, const TimingOptions&);
};

// Alphabetical: protocol_names() lists them in this order, and so do
// `chaos_runner --protocol=all` and every test or bench that loops over it.
//
// Mencius built here runs behind the plain LogServer, which replies when an
// op applies. The early ack (commit + commutativity check) is
// mencius::MenciusServer: a LogServer over MenciusNode whose request hook
// proposes locally and replies on the node's ack
// (SystemKind::kRaftStarMencius). Acking early here too would move every
// table-built Mencius trajectory (chaos fingerprints, BENCH_pipeline rows),
// so it is not the default. Safe and convergent either way;
// measurement-grade latencies come from MenciusServer.
constexpr Protocol kProtocols[] = {
    {"mencius", build<mencius::MenciusNode, mencius::Options>},
    {"multipaxos", build<paxos::PaxosNode, paxos::Options>},
    {"raft", build<raft::RaftNode, raft::Options>},
    {"raftstar", build<raftstar::RaftStarNode, raftstar::Options>},
};

}  // namespace

std::unique_ptr<NodeIface> make_node(const std::string& name, Group group,
                                     Env& env, const TimingOptions& timing) {
  for (const Protocol& p : kProtocols) {
    if (name == p.name) return p.make(std::move(group), env, timing);
  }
  // List what IS known: "unknown protocol" alone sends the caller grepping
  // for the table instead of fixing the typo.
  std::string joined;
  for (const Protocol& p : kProtocols) {
    if (!joined.empty()) joined += ", ";
    joined += p.name;
  }
  PRAFT_CHECK_MSG(false, "unknown protocol \"" + name +
                             "\"; registered protocols: " + joined);
  return nullptr;
}

std::vector<std::string> protocol_names() {
  std::vector<std::string> out;
  for (const Protocol& p : kProtocols) out.emplace_back(p.name);
  return out;
}

}  // namespace praft::consensus
