#include "pql/raftstar_pql.h"

namespace praft::pql {

namespace {
/// How often the leader re-evaluates the commit gate.
constexpr Duration kGateRetry = msec(50);
}  // namespace

RaftStarPqlServer::RaftStarPqlServer(harness::NodeHost& host,
                                     consensus::Group group,
                                     harness::CostModel costs,
                                     raftstar::Options opt, PqlOptions popt)
    : TypedLogServer(host, group, costs, opt), popt_(popt),
      leases_(group, host, popt.lease), gate_retry_(host) {
  // Non-mutating hooks (§4.2): all PQL state lives in this adapter.
  node().set_entry_observer(
      [this](consensus::LogIndex i, const raftstar::Entry& e) {
        if (e.cmd.is_write()) last_write_[e.cmd.key] = i;
      });
  node().set_reply_decorator(
      [this] { return leases_.granted_holders(host_.now()); });
  node().set_append_reply_observer(
      [this](NodeId follower, consensus::LogIndex match,
             const std::vector<NodeId>& holders) {
        auto& ack = follower_acks_[follower];
        ack.match = std::max(ack.match, match);
        ack.holders = holders;
      });
  node().set_commit_gate(
      [this](consensus::LogIndex i) { return commit_allowed(i); });
  gate_retry_.set_handler([this] {
    if (node().is_leader()) node().retry_commit();
  });
}

void RaftStarPqlServer::start() {
  LogServer::start();
  leases_.start();
  gate_retry_.start(kGateRetry);
}

bool RaftStarPqlServer::handle_other(const net::Packet& p) {
  if (const auto* lm = net::payload_as<lease::Message>(p)) {
    leases_.on_message(*lm);
    return true;
  }
  return false;
}

bool RaftStarPqlServer::commit_allowed(consensus::LogIndex i) const {
  // LeaderLearn (Fig. 13): holderSet = holders piggybacked by the followers
  // that acknowledged index i ∪ holders granted by the leader itself.
  const Time now = host_.now();
  std::set<NodeId> holder_set;
  if (popt_.include_leader_grants) {
    for (NodeId h : leases_.granted_holders(now)) holder_set.insert(h);
  }
  for (const auto& [follower, ack] : follower_acks_) {
    if (ack.match < i) continue;
    for (NodeId h : ack.holders) holder_set.insert(h);
  }
  for (NodeId h : holder_set) {
    if (h == id()) continue;  // the leader's own appendOK is implicit
    auto it = follower_acks_.find(h);
    if (it == follower_acks_.end() || it->second.match < i) return false;
  }
  return true;
}

bool RaftStarPqlServer::try_serve(const kv::Command& cmd, NodeId origin) {
  // LocalRead (Fig. 13): quorum lease + every write to the key committed.
  if (!cmd.is_read() || !leases_.quorum_lease_active(host_.now())) {
    return false;
  }
  const consensus::LogIndex need = last_write_index(cmd.key);
  if (need <= node().commit_index()) {
    serve_read_now(cmd, origin);
  } else {
    pending_reads_.push_back(PendingRead{cmd, origin, need});
  }
  return true;
}

void RaftStarPqlServer::serve_read_now(const kv::Command& cmd, NodeId origin) {
  ++local_reads_;
  reply(cmd, origin, store_.read_local(cmd.key));
}

void RaftStarPqlServer::on_applied_hook(consensus::LogIndex,
                                        const kv::Command&) {
  drain_pending_reads();
}

void RaftStarPqlServer::drain_pending_reads() {
  const Time now = host_.now();
  for (auto it = pending_reads_.begin(); it != pending_reads_.end();) {
    if (it->need > node().commit_index()) {
      ++it;
      continue;
    }
    if (leases_.quorum_lease_active(now)) {
      serve_read_now(it->cmd, it->origin);
    } else {
      // The lease lapsed while we waited: fall back to the log path.
      submit_or_forward(it->cmd, it->origin);
    }
    it = pending_reads_.erase(it);
  }
}

}  // namespace praft::pql
