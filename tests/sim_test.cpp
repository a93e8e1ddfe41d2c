#include <gtest/gtest.h>

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/function.h"
#include "net/packet.h"
#include "raft/wire.h"
#include "sim/event_queue.h"
#include "sim/faults.h"
#include "sim/latency.h"
#include "sim/network.h"
#include "sim/resources.h"
#include "sim/simulator.h"

namespace praft::sim {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule_at(30, [&] { fired.push_back(3); });
  q.schedule_at(10, [&] { fired.push_back(1); });
  q.schedule_at(20, [&] { fired.push_back(2); });
  q.run_all();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueueTest, EqualTimesFifo) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(100, [&fired, i] { fired.push_back(i); });
  }
  q.run_all();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, RunUntilAdvancesClock) {
  EventQueue q;
  int count = 0;
  q.schedule_at(50, [&] { ++count; });
  q.schedule_at(150, [&] { ++count; });
  q.run_until(100);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(q.now(), 100);
  q.run_until(200);
  EXPECT_EQ(count, 2);
}

TEST(EventQueueTest, EventsScheduledDuringRunFire) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) q.schedule_at(q.now() + 10, recurse);
  };
  q.schedule_at(0, recurse);
  q.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(q.now(), 40);
}

TEST(EventQueueTest, PastSchedulingClampsToNow) {
  EventQueue q;
  q.schedule_at(100, [] {});
  q.run_all();
  bool ran = false;
  q.schedule_at(5, [&] { ran = true; });  // in the past
  q.run_all();
  EXPECT_TRUE(ran);
  EXPECT_EQ(q.now(), 100);
}

TEST(EventQueueTest, EqualTimesStayFifoWhileCellsAreRecycled) {
  EventQueue q;
  std::vector<int> fired;
  // A first round fills and frees cells, so the second reuses them in the
  // free list's order, not in scheduling order.
  for (int i = 0; i < 8; ++i) {
    q.schedule_at(10, [&fired, i] { fired.push_back(i); });
  }
  q.run_all();
  fired.clear();
  for (int i = 0; i < 12; ++i) {
    q.schedule_at(i % 2 == 0 ? 100 : 50, [&fired, &q, i] {
      fired.push_back(i);
      // Scheduled while running, at an equal time: after every earlier one.
      if (i == 1) q.schedule_at(50, [&fired] { fired.push_back(99); });
    });
  }
  q.run_all();
  EXPECT_EQ(fired,
            (std::vector<int>{1, 3, 5, 7, 9, 11, 99, 0, 2, 4, 6, 8, 10}));
}

/// Counts live copies of a capture and the owners that died, so a test can
/// tell a closure destroyed once from one leaked or destroyed twice.
struct Tracked {
  struct Counts {
    int live = 0;
    int dropped = 0;  // owners destroyed (moved-from shells do not count)
  };
  explicit Tracked(Counts& c) : counts(&c) { ++counts->live; }
  Tracked(Tracked&& o) noexcept
      : counts(o.counts), owner(std::exchange(o.owner, false)) {
    ++counts->live;
  }
  Tracked(const Tracked&) = delete;
  ~Tracked() {
    --counts->live;
    if (owner) ++counts->dropped;
  }
  Counts* counts;
  bool owner = true;
};

TEST(EventQueueTest, ClosureLargerThanACellRunsOnceAndDiesOnce) {
  EventQueue q;
  Tracked::Counts counts;
  int runs = 0;
  auto big = [t = Tracked(counts), pad = std::array<uint64_t, 16>{}, &runs] {
    runs += 1 + static_cast<int>(pad[0]);
  };
  static_assert(!EventQueue::fits_in_cell<decltype(big)>);
  q.schedule_at(5, std::move(big));
  EXPECT_EQ(counts.dropped, 0);
  q.run_all();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(counts.live, 1);  // only `big`, moved from
  EXPECT_EQ(counts.dropped, 1);
}

TEST(EventQueueTest, ThrowingEventFreesItsCellAndTheNextStillFires) {
  EventQueue q;
  Tracked::Counts counts;
  bool next = false;
  q.schedule_at(10,
                [t = Tracked(counts)] { PRAFT_CHECK(t.counts == nullptr); });
  q.schedule_at(20, [&next] { next = true; });
  EXPECT_THROW(q.step(), CheckFailure);
  EXPECT_EQ(q.now(), 10);
  EXPECT_EQ(counts.live, 0);  // the throwing closure left its cell
  EXPECT_EQ(counts.dropped, 1);
  EXPECT_TRUE(q.step());
  EXPECT_TRUE(next);
  EXPECT_FALSE(q.step());
}

TEST(EventQueueTest, DestroyedQueueDestroysEachPendingClosureOnce) {
  Tracked::Counts counts;
  {
    EventQueue q;
    for (int i = 0; i < 40; ++i) {
      if (i % 4 == 0) {  // every fourth one is boxed
        q.schedule_at(
            i, [t = Tracked(counts), pad = std::array<uint64_t, 16>{}] {});
      } else {
        q.schedule_at(i, [t = Tracked(counts)] {});
      }
    }
    q.run_until(9);  // fires 0..9, and their cells go back to the free list
    EXPECT_EQ(counts.dropped, 10);
    EXPECT_EQ(counts.live, 30);
  }
  EXPECT_EQ(counts.live, 0);
  EXPECT_EQ(counts.dropped, 40);
}

TEST(UniqueFunctionTest, InlineAndBoxedCallablesMoveAndDieOnce) {
  Tracked::Counts counts;
  int sum = 0;
  auto small = [t = Tracked(counts), &sum](int x) { sum += x; };
  auto large = [t = Tracked(counts), pad = std::array<uint64_t, 8>{},
                &sum](int x) { sum += 10 * x + static_cast<int>(pad[0]); };
  using Fn = UniqueFunction<void(int)>;
  static_assert(Fn::fits_inline<decltype(small)>);
  static_assert(!Fn::fits_inline<decltype(large)>);
  static_assert(sizeof(Fn) == 32);
  {
    Fn a = std::move(small);
    Fn b = std::move(large);
    EXPECT_EQ(counts.live, 4);  // two lambdas moved from, two held
    Fn c = std::move(a);        // relocates the inline capture
    Fn d = std::move(b);        // moves the box pointer only
    EXPECT_EQ(counts.live, 4);
    EXPECT_TRUE(a == nullptr);
    EXPECT_TRUE(b == nullptr);
    c(1);
    d(2);
    EXPECT_EQ(sum, 21);
    c = std::move(d);  // destroys c's inline capture, takes d's box
    EXPECT_EQ(counts.dropped, 1);
    EXPECT_TRUE(d == nullptr);
    c(3);
    EXPECT_EQ(sum, 51);
    d = [&sum](int x) { sum -= x; };  // assigns in place
    d(1);
    EXPECT_EQ(sum, 50);
  }
  EXPECT_EQ(counts.dropped, 2);
  EXPECT_EQ(counts.live, 2);  // the moved-from lambdas, still in scope
}

TEST(SimulatorTest, AfterSchedulesRelative) {
  Simulator s(1);
  Time seen = -1;
  s.after(msec(5), [&] { seen = s.now(); });
  s.run_for(msec(10));
  EXPECT_EQ(seen, msec(5));
}

TEST(SerialResourceTest, QueuesWork) {
  SerialResource r;
  EXPECT_EQ(r.enqueue(0, 10), 10);
  EXPECT_EQ(r.enqueue(0, 10), 20);   // queued behind the first
  EXPECT_EQ(r.enqueue(100, 5), 105); // idle gap, starts at arrival
  EXPECT_EQ(r.busy_time(), 25);
}

TEST(EgressLinkTest, BandwidthDelay) {
  // 8 Mbps = 1 byte/us.
  EgressLink link(EgressLink::mbps_to_bytes_per_us(8.0));
  EXPECT_EQ(link.enqueue(0, 1000), 1000);
  EXPECT_EQ(link.enqueue(0, 1000), 2000);
}

TEST(EgressLinkTest, UnlimitedIsInstant) {
  EgressLink link;
  EXPECT_EQ(link.enqueue(42, 1 << 20), 42);
}

TEST(LatencyMatrixTest, Aws5MatchesPaperSpread) {
  const LatencyMatrix m = LatencyMatrix::aws5();
  EXPECT_EQ(m.num_sites(), 5);
  Duration lo = kTimeMax, hi = 0;
  for (SiteId a = 0; a < 5; ++a) {
    for (SiteId b = a + 1; b < 5; ++b) {
      lo = std::min(lo, m.rtt(a, b));
      hi = std::max(hi, m.rtt(a, b));
    }
  }
  EXPECT_EQ(lo, msec(25));   // Ohio–Canada
  EXPECT_EQ(hi, msec(292));  // Ireland–Seoul (the paper's extreme)
  EXPECT_EQ(m.site_name(LatencyMatrix::kOregon), "Oregon");
}

TEST(LatencyMatrixTest, OregonNearestQuorumIsOhioCanada) {
  // §5.2: "the quorum of Oregon, Ohio and Canada are closest to each other".
  const LatencyMatrix m = LatencyMatrix::aws5();
  const Duration to_ohio = m.rtt(LatencyMatrix::kOregon, LatencyMatrix::kOhio);
  const Duration to_canada =
      m.rtt(LatencyMatrix::kOregon, LatencyMatrix::kCanada);
  const Duration to_ireland =
      m.rtt(LatencyMatrix::kOregon, LatencyMatrix::kIreland);
  const Duration to_seoul =
      m.rtt(LatencyMatrix::kOregon, LatencyMatrix::kSeoul);
  EXPECT_LT(std::max(to_ohio, to_canada), std::min(to_ireland, to_seoul));
}

TEST(LatencyMatrixTest, JitterBounded) {
  LatencyMatrix m = LatencyMatrix::aws5();
  m.set_jitter(0.05);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const Duration d = m.one_way(0, 4, rng);
    EXPECT_GE(d, msec(126) / 2 * 95 / 100);
    EXPECT_LE(d, msec(126) / 2 * 105 / 100);
  }
}

TEST(FaultPlanTest, CrashWindows) {
  FaultPlan f;
  f.crash(3, msec(10), msec(20));
  EXPECT_FALSE(f.is_down(3, msec(5)));
  EXPECT_TRUE(f.is_down(3, msec(15)));
  EXPECT_FALSE(f.is_down(3, msec(20)));
  EXPECT_FALSE(f.is_down(2, msec(15)));
}

TEST(FaultPlanTest, PartitionPairsAndIsolation) {
  FaultPlan f;
  f.partition_pair(0, 1, 0, msec(10));
  f.isolate(2, msec(5), msec(15));
  EXPECT_TRUE(f.is_blocked(0, 1, msec(1)));
  EXPECT_TRUE(f.is_blocked(1, 0, msec(1)));
  EXPECT_FALSE(f.is_blocked(0, 1, msec(10)));
  EXPECT_TRUE(f.is_blocked(2, 4, msec(6)));
  EXPECT_TRUE(f.is_blocked(4, 2, msec(6)));
  EXPECT_FALSE(f.is_blocked(0, 3, msec(6)));
}

class NetworkFixture : public ::testing::Test {
 protected:
  NetworkFixture() : sim_(7), net_(sim_, LatencyMatrix::aws5()) {}

  NodeId add(SiteId site, double egress = 0.0) {
    const auto idx = received_.size();
    received_.emplace_back();
    return net_.add_node(site,
                         [this, idx](net::Packet&& p) {
                           received_[idx].push_back(std::move(p));
                         },
                         egress);
  }

  Simulator sim_;
  Network net_;
  std::vector<std::vector<net::Packet>> received_;
};

TEST_F(NetworkFixture, DeliversAfterOneWayLatency) {
  const NodeId a = add(LatencyMatrix::kOregon);
  const NodeId b = add(LatencyMatrix::kSeoul);
  net_.send(a, b, std::string("hi"), 100);
  sim_.run_for(msec(50));
  EXPECT_TRUE(received_[1].empty());  // 126/2 = 63 ms one way
  sim_.run_for(msec(30));
  ASSERT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(*net::payload_as<std::string>(received_[1][0]), "hi");
  EXPECT_EQ(received_[1][0].from, a);
}

TEST_F(NetworkFixture, IntraSiteIsFast) {
  const NodeId a = add(0);
  const NodeId b = add(0);
  net_.send(a, b, 1, 10);
  sim_.run_for(msec(2));
  EXPECT_EQ(received_[1].size(), 1u);
}

TEST_F(NetworkFixture, CrashedNodeNeitherSendsNorReceives) {
  const NodeId a = add(0);
  const NodeId b = add(1);
  net_.faults().crash(b, 0, sec(1));
  net_.send(a, b, 1, 10);
  sim_.run_for(msec(500));
  EXPECT_TRUE(received_[1].empty());
  net_.faults().crash(a, sec(1), sec(2));
  sim_.run_until(sec(1) + msec(1));
  net_.send(a, b, 2, 10);
  sim_.run_for(msec(500));
  EXPECT_TRUE(received_[1].empty());
}

TEST_F(NetworkFixture, CrashInFlightDropsDelivery) {
  const NodeId a = add(LatencyMatrix::kOregon);
  const NodeId b = add(LatencyMatrix::kSeoul);
  net_.send(a, b, 1, 10);           // arrives ~63 ms
  net_.faults().crash(b, msec(10), msec(200));
  sim_.run_for(msec(150));
  EXPECT_TRUE(received_[1].empty());
}

TEST_F(NetworkFixture, PartitionBlocksBothWays) {
  const NodeId a = add(0);
  const NodeId b = add(1);
  net_.faults().partition_pair(a, b, 0, sec(1));
  net_.send(a, b, 1, 10);
  net_.send(b, a, 2, 10);
  sim_.run_for(msec(500));
  EXPECT_TRUE(received_[0].empty());
  EXPECT_TRUE(received_[1].empty());
  sim_.run_until(sec(1) + msec(1));
  net_.send(a, b, 3, 10);
  sim_.run_for(msec(100));
  EXPECT_EQ(received_[1].size(), 1u);
}

TEST_F(NetworkFixture, DropRateLosesRoughlyThatFraction) {
  const NodeId a = add(0);
  const NodeId b = add(0);
  net_.faults().set_drop_rate(0.5);
  for (int i = 0; i < 1000; ++i) net_.send(a, b, i, 10);
  sim_.run_for(msec(100));
  EXPECT_GT(received_[1].size(), 350u);
  EXPECT_LT(received_[1].size(), 650u);
}

TEST_F(NetworkFixture, EgressBandwidthSerializesLargeSends) {
  // 1 byte/us egress: 10 x 1000-byte messages take ~10 ms to drain.
  const NodeId a = add(0, 1.0);
  const NodeId b = add(0);
  for (int i = 0; i < 10; ++i) net_.send(a, b, i, 1000);
  sim_.run_for(msec(3));
  EXPECT_LT(received_[1].size(), 4u);
  sim_.run_for(msec(12));
  EXPECT_EQ(received_[1].size(), 10u);
}

TEST_F(NetworkFixture, LinksAreFifoDespiteJitter) {
  // TCP semantics: a (src, dst) stream never reorders, however the jitter
  // lands. Raft*'s no-erase append rule depends on this (DESIGN.md §5).
  const NodeId a = add(LatencyMatrix::kOregon);
  const NodeId b = add(LatencyMatrix::kSeoul);
  for (int i = 0; i < 200; ++i) net_.send(a, b, i, 10);
  sim_.run_for(msec(200));
  ASSERT_EQ(received_[1].size(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(*net::payload_as<int>(received_[1][static_cast<size_t>(i)]), i);
  }
}

TEST_F(NetworkFixture, FifoIsPerLinkNotGlobal) {
  // Traffic on different links may interleave arbitrarily.
  const NodeId a = add(LatencyMatrix::kOregon);
  const NodeId b = add(LatencyMatrix::kOhio);
  const NodeId c = add(LatencyMatrix::kOhio);
  net_.send(a, c, 1, 10);
  net_.send(b, c, 2, 10);  // much closer: arrives first
  sim_.run_for(msec(100));
  ASSERT_EQ(received_[2].size(), 2u);
  EXPECT_EQ(*net::payload_as<int>(received_[2][0]), 2);
}

TEST_F(NetworkFixture, FifoHoldsBothWaysAndForLateDestinations) {
  // Each source keeps one FIFO clock per destination. The two directions of
  // a pair are separate links, a destination registered after the sender's
  // first send grows the sender's clocks without disturbing the links
  // already in flight, and one source's links never wait for each other.
  const NodeId a = add(LatencyMatrix::kOregon);
  const NodeId b = add(LatencyMatrix::kSeoul);
  NodeId c = kNoNode;
  std::vector<int> sent_ab, sent_ba, sent_ac, sent_ca;
  int next = 0;
  for (int round = 0; round < 8; ++round) {
    if (round == 3) c = add(LatencyMatrix::kOhio);
    for (int i = 0; i < 25; ++i) {
      net_.send(a, b, next, 10);
      sent_ab.push_back(next++);
      net_.send(b, a, next, 10);
      sent_ba.push_back(next++);
      if (c == kNoNode) continue;
      net_.send(a, c, next, 10);
      sent_ac.push_back(next++);
      net_.send(c, a, next, 10);
      sent_ca.push_back(next++);
    }
    sim_.run_for(msec(1));  // the next round departs while this one flies
  }
  sim_.run_for(msec(300));

  auto stream = [&](NodeId from, NodeId to) {
    std::vector<int> got;
    for (const net::Packet& p : received_[static_cast<size_t>(to)]) {
      if (p.from == from) got.push_back(*net::payload_as<int>(p));
    }
    return got;
  };
  EXPECT_EQ(stream(a, b), sent_ab);
  EXPECT_EQ(stream(b, a), sent_ba);
  EXPECT_EQ(stream(a, c), sent_ac);
  EXPECT_EQ(stream(c, a), sent_ca);

  // Sent to far Seoul first, the message to near Ohio still lands first.
  net_.send(a, b, -1, 10);
  net_.send(a, c, -2, 10);
  sim_.run_for(msec(45));
  EXPECT_EQ(*net::payload_as<int>(received_[static_cast<size_t>(c)].back()),
            -2);
  EXPECT_NE(*net::payload_as<int>(received_[static_cast<size_t>(b)].back()),
            -1);
}

TEST_F(NetworkFixture, FramesReturnToThePoolAtSend) {
  // A default send builds no frame. Under PRAFT_WIRE_VERIFY each send
  // encodes one and hands it back before the delivery is scheduled. Oregon
  // to Seoul is a 63 ms hop: every message below is still in flight when
  // the pool is read, and none holds a frame.
  const bool prev = net::wire_verify_enabled();
  const NodeId a = add(LatencyMatrix::kOregon);
  const NodeId b = add(LatencyMatrix::kSeoul);
  std::vector<size_t> sizes;
  const auto send_50 = [&] {
    for (int i = 0; i < 50; ++i) {
      raft::AppendEntries ae;
      ae.term = 1;
      ae.leader = a;
      ae.prev_index = i;
      for (int e = 0; e < i % 5; ++e) {
        ae.entries.push_back(
            raft::Entry{1, kv::Command{kv::Op::kPut, 1, 2, 8, 3, 1}});
      }
      const raft::Message m{ae};
      sizes.push_back(raft::wire_size(m));
      net_.send(a, b, m, sizes.back());
    }
  };
  net::set_wire_verify(false);
  send_50();
  EXPECT_EQ(net_.pool_stats().acquires, 0u);
  net::set_wire_verify(true);
  send_50();
  net::set_wire_verify(prev);
  sim_.run_for(msec(50));
  EXPECT_TRUE(received_[1].empty());
  EXPECT_EQ(net_.pool_stats().acquires, 50u);
  EXPECT_EQ(net_.pool_stats().outstanding, 0u);
  EXPECT_EQ(net_.pool_stats().high_water, 1u);
  sim_.run_for(msec(50));
  ASSERT_EQ(received_[1].size(), sizes.size());
  for (size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(received_[1][i].bytes, sizes[i]);
    const auto* m = net::payload_as<raft::Message>(received_[1][i]);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(std::get<raft::AppendEntries>(*m).prev_index,
              static_cast<int64_t>(i % 50));
  }
}

TEST_F(NetworkFixture, CountersTrack) {
  const NodeId a = add(0);
  const NodeId b = add(0);
  net_.send(a, b, 1, 128);
  sim_.run_for(msec(10));
  EXPECT_EQ(net_.messages_sent(), 1u);
  EXPECT_EQ(net_.messages_delivered(), 1u);
  EXPECT_EQ(net_.bytes_sent(), 128u);
}

}  // namespace
}  // namespace praft::sim
