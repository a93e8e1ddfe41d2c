// Unit tests for the Mencius revocation path (coordinated-Paxos phase 1/2 at
// ballots > 0, paper §A.3): a live replica takes over a crashed owner's
// slots, re-proposing any value it finds and no-op'ing the rest.
#include <gtest/gtest.h>

#include "mencius/node.h"
#include "scripted_env.h"
#include "test_util.h"

namespace praft {
namespace {

using test::ScriptedEnv;

consensus::Group group_of(NodeId self, std::initializer_list<NodeId> members) {
  consensus::Group g;
  g.self = self;
  g.members = members;
  return g;
}

mencius::Options revoke_options() {
  mencius::Options o;
  o.batch_delay = 0;
  o.heartbeat_interval = msec(50);
  o.revoke_timeout = msec(300);
  o.learn_after = msec(100);
  return o;
}

template <typename M>
const M* find_sent(ScriptedEnv& env, NodeId to) {
  for (const auto& s : env.outbox) {
    if (s.to != to) continue;
    const auto* msg = std::any_cast<mencius::Message>(&s.payload);
    if (msg == nullptr) continue;
    if (const M* m = std::get_if<M>(msg)) return m;
  }
  return nullptr;
}

net::Packet packet(NodeId from, NodeId to, mencius::Message m) {
  return test::packet(from, to, mencius::wire_size(m), std::move(m));
}

class RevocationFixture : public ::testing::Test {
 protected:
  RevocationFixture()
      : n11_(group_of(11, {10, 11, 12}), env11_, revoke_options()),
        n12_(group_of(12, {10, 11, 12}), env12_, revoke_options()) {
    n11_.set_apply([this](consensus::LogIndex i, const kv::Command& c) {
      applied11_.emplace_back(i, c);
    });
    n11_.start();
    n12_.start();
  }

  /// Starves node 11 until its maintenance loop starts a revocation of
  /// owner 10's slots, then returns the captured RevPrepare.
  const mencius::RevPrepare* starve_until_revocation() {
    env11_.advance(msec(400));  // > revoke_timeout with no word from 10
    return find_sent<mencius::RevPrepare>(env11_, 12);
  }

  ScriptedEnv env11_, env12_;
  mencius::MenciusNode n11_, n12_;
  std::vector<std::pair<consensus::LogIndex, kv::Command>> applied11_;
};

TEST_F(RevocationFixture, SilentOwnerWithValueGetsValueRecovered) {
  // Owner 10 proposed a real value for slot 0 to node 11 only, then died:
  // the revocation must recover THAT value, not a no-op (Paxos safety).
  const kv::Command v{kv::Op::kPut, 5, 55, 8, 9, 1};
  mencius::AcceptOwn ao;
  ao.owner = 10;
  ao.items = {mencius::OwnItem{0, v}};
  n11_.on_packet(packet(10, 11, mencius::Message{ao}));
  env11_.clear();

  const auto* prep = starve_until_revocation();
  ASSERT_NE(prep, nullptr);
  EXPECT_EQ(prep->owner, 10);
  EXPECT_EQ(prep->lo, 0);
  EXPECT_GT(prep->bal.round, 0);
  EXPECT_EQ(n11_.stats().revocations_started, 1);

  // Node 12 (knows nothing about slot 0) promises.
  n12_.on_packet(packet(11, 12, mencius::Message{*prep}));
  const auto* pok = find_sent<mencius::RevPrepareOk>(env12_, 11);
  ASSERT_NE(pok, nullptr);
  EXPECT_TRUE(pok->accepted.empty());
  env11_.clear();
  n11_.on_packet(packet(12, 11, mencius::Message{*pok}));

  // Majority of promises (self + 12): phase 2 re-proposes 11's value.
  const auto* acc = find_sent<mencius::RevAccept>(env11_, 12);
  ASSERT_NE(acc, nullptr);
  ASSERT_FALSE(acc->items.empty());
  EXPECT_TRUE(acc->items[0].cmd == v);

  // 12 accepts; its ack completes the quorum and 11 decides + executes v.
  env12_.clear();
  n12_.on_packet(packet(11, 12, mencius::Message{*acc}));
  const auto* aok = find_sent<mencius::RevAcceptOk>(env12_, 11);
  ASSERT_NE(aok, nullptr);
  n11_.on_packet(packet(12, 11, mencius::Message{*aok}));
  ASSERT_FALSE(applied11_.empty());
  EXPECT_EQ(applied11_[0].first, 0);
  EXPECT_TRUE(applied11_[0].second == v);
}

TEST_F(RevocationFixture, SilentOwnerWithNothingGetsNoops) {
  // Node 11 proposes its own slot 1 and commits it; slot 0 (owner 10) stays
  // empty and blocks execution until it is revoked to a no-op.
  const kv::Command mine{kv::Op::kPut, 7, 77, 8, 0, 1};
  ASSERT_EQ(n11_.submit(mine), 1);
  mencius::AcceptOwnOk ok;
  ok.acceptor = 12;
  ok.indexes = {1};
  n11_.on_packet(packet(12, 11, mencius::Message{ok}));
  EXPECT_TRUE(applied11_.empty());  // blocked by slot 0
  env11_.clear();

  const auto* prep = starve_until_revocation();
  ASSERT_NE(prep, nullptr);
  n12_.on_packet(packet(11, 12, mencius::Message{*prep}));
  const auto* pok = find_sent<mencius::RevPrepareOk>(env12_, 11);
  ASSERT_NE(pok, nullptr);
  env11_.clear();
  n11_.on_packet(packet(12, 11, mencius::Message{*pok}));
  const auto* acc = find_sent<mencius::RevAccept>(env11_, 12);
  ASSERT_NE(acc, nullptr);
  ASSERT_FALSE(acc->items.empty());
  EXPECT_TRUE(acc->items[0].cmd.is_noop());  // nothing to recover: skip
  env12_.clear();
  n12_.on_packet(packet(11, 12, mencius::Message{*acc}));
  const auto* aok = find_sent<mencius::RevAcceptOk>(env12_, 11);
  ASSERT_NE(aok, nullptr);
  n11_.on_packet(packet(12, 11, mencius::Message{*aok}));

  // Slot 0 decided no-op; our own slot 1 now executes.
  ASSERT_EQ(applied11_.size(), 2u);
  EXPECT_TRUE(applied11_[0].second.is_noop());
  EXPECT_TRUE(applied11_[1].second == mine);
}

TEST_F(RevocationFixture, StaleRevokerIsIgnored) {
  // A promise at a higher ballot blocks older revocations.
  mencius::RevPrepare high;
  high.from = 12;
  high.bal = consensus::Ballot{10, 12};
  high.owner = 10;
  high.lo = 0;
  high.hi = 3;
  n11_.on_packet(packet(12, 11, mencius::Message{high}));
  env11_.clear();
  mencius::RevPrepare low = high;
  low.from = 12;
  low.bal = consensus::Ballot{5, 12};
  n11_.on_packet(packet(12, 11, mencius::Message{low}));
  // No promise reply for the stale ballot.
  EXPECT_EQ(find_sent<mencius::RevPrepareOk>(env11_, 12), nullptr);
}

TEST_F(RevocationFixture, RevokedOwnerJumpsPastItsSlots) {
  // An owner whose ballot-0 proposal is rejected re-proposes the value on a
  // fresh slot past the revoked range.
  ScriptedEnv env10;
  mencius::MenciusNode n10(group_of(10, {10, 11, 12}), env10,
                           revoke_options());
  std::vector<kv::Command> acked;
  n10.set_acked([&](const kv::Command& c) { acked.push_back(c); });
  n10.start();
  const kv::Command v{kv::Op::kPut, 3, 33, 8, 2, 1};
  ASSERT_EQ(n10.submit(v), 0);
  mencius::AcceptOwnRej rej;
  rej.acceptor = 11;
  rej.indexes = {0};
  rej.jump_past = 3;
  n10.on_packet(packet(11, 10, mencius::Message{rej}));
  EXPECT_GT(n10.next_own(), 3);  // jumped past the revoked range
  EXPECT_TRUE(acked.empty());    // client not acked twice / prematurely
}

}  // namespace
}  // namespace praft
