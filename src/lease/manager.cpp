#include "lease/manager.h"

namespace praft::lease {

LeaseManager::LeaseManager(consensus::Group group, consensus::Env& env,
                           Options opt)
    : group_(std::move(group)), env_(env), opt_(opt),
      held_expiry_(static_cast<size_t>(group_.n()), 0),
      granted_expiry_(static_cast<size_t>(group_.n()), 0),
      last_ack_(static_cast<size_t>(group_.n()), 0),
      renew_(env) {
  group_.validate();
  renew_.set_handler([this] {
    if (granting_) grant_round();
  });
}

void LeaseManager::start() {
  if (started_) return;
  started_ = true;
  // Grace period: treat everyone as responsive for one duration from start.
  for (auto& t : last_ack_) t = env_.now();
  grant_round();
  renew_.start(opt_.renew_interval);
}

void LeaseManager::resume_granting() {
  granting_ = true;
  grant_round();
}

void LeaseManager::grant_round() {
  const Time now = env_.now();
  const Time expiry = now + opt_.duration;
  for (NodeId peer : group_.members) {
    const auto rank = static_cast<size_t>(group_.rank_of(peer));
    if (peer == group_.self) {
      granted_expiry_[rank] = expiry;
      held_expiry_[rank] = expiry;  // self-grant is local
      continue;
    }
    if (!opt_.grant_to.empty()) {
      bool listed = false;
      for (NodeId g : opt_.grant_to) listed |= (g == peer);
      if (!listed) continue;
    }
    // Do not renew to holders that have gone silent for a full duration:
    // their lease runs out and writes stop waiting for them (PQL liveness).
    const bool responsive = now - last_ack_[rank] <= opt_.duration;
    if (!responsive && granted_expiry_[rank] <= now) continue;
    if (responsive) granted_expiry_[rank] = expiry;
    Grant g{group_.self, peer, granted_expiry_[rank]};
    env_.send(peer, Message{g});
  }
}

void LeaseManager::on_message(const Message& m) {
  if (const auto* g = std::get_if<Grant>(&m)) {
    on_grant(*g);
  } else if (const auto* a = std::get_if<GrantAck>(&m)) {
    on_grant_ack(*a, a->holder);
  }
}

void LeaseManager::on_grant(const Grant& g) {
  if (!group_.contains(g.grantor)) return;
  const auto rank = static_cast<size_t>(group_.rank_of(g.grantor));
  if (g.expiry > held_expiry_[rank]) held_expiry_[rank] = g.expiry;
  GrantAck ack{group_.self, g.expiry};
  env_.send(g.grantor, Message{ack});
}

void LeaseManager::on_grant_ack(const GrantAck& a, NodeId from) {
  if (!group_.contains(from)) return;
  (void)a;
  last_ack_[static_cast<size_t>(group_.rank_of(from))] = env_.now();
}

int LeaseManager::valid_leases(Time now) const {
  int count = 0;
  for (size_t r = 0; r < held_expiry_.size(); ++r) {
    if (group_.members[r] == group_.self || held_expiry_[r] > now) ++count;
  }
  return count;
}

std::vector<NodeId> LeaseManager::granted_holders(Time now) const {
  std::vector<NodeId> holders;
  for (size_t r = 0; r < granted_expiry_.size(); ++r) {
    if (group_.members[r] == group_.self) continue;
    if (granted_expiry_[r] > now) holders.push_back(group_.members[r]);
  }
  return holders;
}

}  // namespace praft::lease
