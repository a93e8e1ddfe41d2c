#pragma once

#include "harness/cost_model.h"
#include "harness/host.h"
#include "harness/messages.h"
#include "kv/store.h"

namespace praft::harness {

/// Base of harness::LogServer, the one replica adapter: owns the KV state
/// machine and the client-facing reply; LogServer wires a protocol node in.
class ReplicaServer : public PacketHandler {
 public:
  ReplicaServer(NodeHost& host, CostModel costs)
      : host_(host), costs_(costs) {
    host_.attach(this);
  }

  virtual void start() = 0;
  [[nodiscard]] virtual bool is_leader() const = 0;
  [[nodiscard]] virtual NodeId leader_hint() const = 0;
  /// True when the protocol has no single elected leader (see
  /// consensus::NodeIface::leaderless).
  [[nodiscard]] virtual bool leaderless() const { return false; }
  /// Kicks off an immediate election attempt (used to pin the leader site).
  virtual void trigger_election() {}
  /// Highest position this replica knows committed (the replica's committed
  /// prefix, exposed for chaos/invariant tracing). -1 when not applicable.
  [[nodiscard]] virtual consensus::LogIndex commit_index() const { return -1; }

  [[nodiscard]] NodeId id() const { return host_.id(); }
  [[nodiscard]] SiteId site() const { return host_.site(); }
  [[nodiscard]] const kv::KvStore& store() const { return store_; }
  [[nodiscard]] NodeHost& host() { return host_; }

 protected:
  void reply_to_client(NodeId client, uint64_t seq, uint64_t value, bool ok) {
    ClientReply r{seq, value, ok, id()};
    host_.send(client, Message{r}, wire_size(r));
  }

  NodeHost& host_;
  CostModel costs_;
  kv::KvStore store_;
};

}  // namespace praft::harness
