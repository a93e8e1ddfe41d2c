#pragma once

#include <variant>
#include <vector>

#include "consensus/env.h"
#include "consensus/group.h"
#include "consensus/types.h"
#include "net/field_codec.h"
#include "net/packet.h"

namespace praft::lease {

/// Paxos Quorum Lease parameters (§5.1 uses the PQL paper's defaults:
/// 2 s duration, renewed every 0.5 s).
struct Options {
  Duration duration = sec(2);
  Duration renew_interval = msec(500);
  /// Peers this replica grants leases to; empty = everyone (the paper's
  /// default "any replica can read locally" configuration). Tests use
  /// partial grant sets to reproduce the §A.2 hand-port bug.
  std::vector<NodeId> grant_to;
};

/// Lease grant message: `grantor` grants `holder` a lease valid until
/// `expiry`. The simulation has a common time base, matching the global-timer
/// abstraction the paper's own TLA+ spec uses (Appendix B.3); a production
/// port would subtract a clock-drift guard from `expiry`.
struct Grant {
  NodeId grantor = kNoNode;
  NodeId holder = kNoNode;
  Time expiry = 0;

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.grantor, m.holder, m.expiry); }

  friend bool operator==(const Grant&, const Grant&) = default;
};

/// Holder's acknowledgement; a grantor stops renewing to silent holders so a
/// crashed holder drops out of everyone's holder set after one duration —
/// bounding how long PQL writes can stall on a dead lease holder.
struct GrantAck {
  NodeId holder = kNoNode;
  Time expiry = 0;  // echo of the acked grant

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.holder, m.expiry); }

  friend bool operator==(const GrantAck&, const GrantAck&) = default;
};

using Message = std::variant<Grant, GrantAck>;

// Frame sizes derive from the fields lists above (net/field_codec.h).
using net::wire_size;

/// Tracks leases this replica GRANTS to every peer (renewed on a timer) and
/// leases it HOLDS from peers. PQL's quorum-lease predicate (paper Fig. 11
/// line 9 / Fig. 13 line 3): a replica may read locally iff it holds valid
/// leases from >= f+1 replicas including itself.
class LeaseManager {
 public:
  LeaseManager(consensus::Group group, consensus::Env& env, Options opt = {});

  /// Starts the periodic grant/renew loop (every replica grants to all).
  void start();

  /// Feeds a lease message delivered from the network.
  void on_message(const Message& m);
  void on_grant(const Grant& g);
  void on_grant_ack(const GrantAck& a, NodeId from);

  /// Number of valid leases held (self-lease always counts).
  [[nodiscard]] int valid_leases(Time now) const;

  /// PQL quorum-lease predicate: validLeasesNum >= f + 1.
  [[nodiscard]] bool quorum_lease_active(Time now) const {
    return valid_leases(now) >= group_.majority();
  }

  /// Replicas this node has granted (still-unexpired) leases to, i.e. the
  /// holders it must notify before committing (attached to appendOK per
  /// Fig. 13; self excluded — a commit never waits on the leader itself).
  [[nodiscard]] std::vector<NodeId> granted_holders(Time now) const;

  /// Pauses granting (used in tests to force lease expiry).
  void stop_granting() { granting_ = false; }
  void resume_granting();

 private:
  void grant_round();
  void arm_timer();

  consensus::Group group_;
  consensus::Env& env_;
  Options opt_;
  std::vector<Time> held_expiry_;     // by member rank; our own always valid
  std::vector<Time> granted_expiry_;  // by member rank
  std::vector<Time> last_ack_;        // last GrantAck seen, by member rank
  bool granting_ = true;
  bool started_ = false;
  uint64_t timer_epoch_ = 0;
};

}  // namespace praft::lease
