#pragma once

#include "harness/log_server.h"
#include "lease/manager.h"
#include "raftstar/node.h"

namespace praft::pql {

/// Leader Lease (LL) baseline from §5.1: the leader holds the lease alone,
/// so only the leader may answer reads from its local copy; follower-site
/// clients still pay a WAN round trip to forward the read. Writes take the
/// unmodified Raft* path (no holder gating — only the leader reads locally,
/// and it observes every commit first).
class LeaderLeaseServer
    : public harness::TypedLogServer<raftstar::RaftStarNode> {
 public:
  LeaderLeaseServer(harness::NodeHost& host, consensus::Group group,
                    harness::CostModel costs, raftstar::Options opt = {},
                    lease::Options lopt = {})
      : TypedLogServer(host, group, costs, opt), leases_(group, host, lopt) {}

  void start() override {
    LogServer::start();
    leases_.start();
  }

  [[nodiscard]] int64_t local_reads_served() const { return local_reads_; }

 protected:
  bool handle_other(const net::Packet& p) override {
    if (const auto* lm = net::payload_as<lease::Message>(p)) {
      leases_.on_message(*lm);
      return true;
    }
    return false;
  }

  bool try_serve(const kv::Command& cmd, NodeId origin) override {
    if (!cmd.is_read() || !node().is_leader() ||
        !leases_.quorum_lease_active(host_.now())) {
      return false;  // followers forward; an unleased leader uses the log
    }
    ++local_reads_;
    reply(cmd, origin, store_.read_local(cmd.key));
    return true;
  }

 private:
  lease::LeaseManager leases_;
  int64_t local_reads_ = 0;
};

}  // namespace praft::pql
