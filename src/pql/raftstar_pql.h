#pragma once

#include <list>
#include <map>
#include <set>
#include <unordered_map>

#include "consensus/timer.h"
#include "harness/log_server.h"
#include "lease/manager.h"
#include "raftstar/node.h"

namespace praft::pql {

struct PqlOptions {
  lease::Options lease;
  /// Ablation A1 — the paper's "handworked bug" (§A.2): a hand-port that
  /// collects holder sets only from the f follower appendOKs and forgets the
  /// holders granted by the leader itself. The automated port includes them
  /// because f+1 Paxos acceptOKs map to f appendOKs plus the leader's
  /// implicit one. Set false to reproduce the bug.
  bool include_leader_grants = true;
};

/// Raft*-PQL (paper Fig. 13): Raft* plus the ported Paxos Quorum Lease
/// optimization, built exclusively from non-mutating hooks on RaftStarNode —
/// the runtime embodiment of §4.2's non-mutating optimization class:
///  * LocalRead:    lease-holding replicas serve reads locally once every
///                  log entry that writes the key is committed.
///  * Phase2b/appendOK: repliers piggyback the holders of leases THEY granted.
///  * LeaderLearn:  commit waits for appendOKs from every holder in
///                  (piggybacked holder sets ∪ leader's own grants).
class RaftStarPqlServer
    : public harness::TypedLogServer<raftstar::RaftStarNode> {
 public:
  RaftStarPqlServer(harness::NodeHost& host, consensus::Group group,
                    harness::CostModel costs, raftstar::Options opt = {},
                    PqlOptions popt = {});

  void start() override;

  [[nodiscard]] const lease::LeaseManager& leases() const { return leases_; }
  lease::LeaseManager& leases() { return leases_; }
  [[nodiscard]] int64_t local_reads_served() const { return local_reads_; }

  /// PQL replicas serve reads locally, so a client request costs the full
  /// request-handling time at EVERY replica (not the cheap forward relay),
  /// plus its bytes like every other request.
  [[nodiscard]] Duration cost_of(const net::Packet& p) const override {
    if (!costs_.enabled) return 0;
    if (const auto* hm = net::payload_as<harness::Message>(p)) {
      if (std::holds_alternative<harness::ClientRequest>(*hm)) {
        return costs_.client_request + costs_.size_cost(p.bytes);
      }
    }
    return LogServer::cost_of(p);
  }

 protected:
  bool handle_other(const net::Packet& p) override;
  bool try_serve(const kv::Command& cmd, NodeId origin) override;
  void on_applied_hook(consensus::LogIndex idx,
                       const kv::Command& cmd) override;

 private:
  struct FollowerAck {
    consensus::LogIndex match = 0;
    std::vector<NodeId> holders;  // leases granted BY that follower
  };
  struct PendingRead {
    kv::Command cmd;
    NodeId origin;
    consensus::LogIndex need;
  };

  [[nodiscard]] consensus::LogIndex last_write_index(uint64_t key) const {
    auto it = last_write_.find(key);
    return it == last_write_.end() ? 0 : it->second;
  }
  bool commit_allowed(consensus::LogIndex i) const;
  void serve_read_now(const kv::Command& cmd, NodeId origin);
  void drain_pending_reads();

  PqlOptions popt_;
  lease::LeaseManager leases_;
  std::unordered_map<uint64_t, consensus::LogIndex> last_write_;
  // Ordered: commit_allowed walks the acks to build the holder set, and the
  // walk order must be seed-stable (lint rule D1).
  std::map<NodeId, FollowerAck> follower_acks_;
  std::list<PendingRead> pending_reads_;
  int64_t local_reads_ = 0;
  /// Leases expire on the clock, not on message arrival: the leader re-runs
  /// LeaderLearn periodically so commits blocked on a dead holder unblock
  /// at expiry.
  consensus::PeriodicTimer gate_retry_;
};

}  // namespace praft::pql
