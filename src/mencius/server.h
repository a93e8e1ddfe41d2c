#pragma once

#include "harness/log_server.h"
#include "mencius/node.h"

namespace praft::mencius {

/// Replica adapter for Raft*-Mencius: every replica serves its own region's
/// clients directly (no forwarding — the point of the optimization, §A.3)
/// and acknowledges an op the moment the node says it is safe (committed +
/// commutativity check), possibly before it executes. Applying the total
/// order to the KV store is LogServer's.
class MenciusServer : public harness::TypedLogServer<MenciusNode> {
 public:
  MenciusServer(harness::NodeHost& host, consensus::Group group,
                harness::CostModel costs, Options opt = {})
      : TypedLogServer(host, std::move(group), costs, opt) {
    node().set_acked([this](const kv::Command& c) { on_acked(c); });
  }

 protected:
  /// Proposes every request on this replica's own slots. The node acks it
  /// exactly once (on_acked), also when it re-proposes the command on a
  /// fresh slot after a revocation, so nothing here replies at apply. A
  /// full replication pipe refuses the op: returning false hands it to
  /// LogServer's short retry (whose own submit is refused the same way).
  bool try_serve(const kv::Command& cmd, NodeId) override {
    return node().submit(cmd) >= 0;
  }

 private:
  void on_acked(const kv::Command& cmd) {
    if (cmd.client == kNoNode) return;
    // An early-acked read is safe precisely because no conflicting write is
    // pending (the commute check), so the local copy is current.
    reply(cmd, kNoNode, cmd.is_read() ? store_.read_local(cmd.key) : 0);
  }
};

}  // namespace praft::mencius
