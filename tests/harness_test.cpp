#include <gtest/gtest.h>

#include <any>
#include <vector>

#include "common/check.h"
#include "harness/cluster.h"
#include "harness/cost_model.h"
#include "harness/experiment.h"
#include "harness/log_server.h"
#include "lease/manager.h"
#include "mencius/node.h"
#include "paxos/node.h"
#include "raft/node.h"
#include "raftstar/node.h"
#include "test_util.h"

namespace praft {
namespace {

TEST(MetricsTest, WindowFiltersSamples) {
  harness::Metrics m(msec(100), msec(200));
  m.record(msec(50), 0, true, msec(1));    // before window
  m.record(msec(150), 0, true, msec(2));   // inside
  m.record(msec(250), 0, true, msec(3));   // after
  EXPECT_EQ(m.completed(), 1);
  EXPECT_EQ(m.reads(0).count(), 1);
}

TEST(MetricsTest, ThroughputUsesWindowSpan) {
  harness::Metrics m(0, sec(2));
  for (int i = 0; i < 100; ++i) m.record(msec(500), 0, false, msec(1));
  EXPECT_DOUBLE_EQ(m.throughput_ops(), 50.0);  // 100 ops over 2 s
}

TEST(MetricsTest, MergedHistogramsSpanSites) {
  harness::Metrics m(0, kTimeMax);
  m.record(1, 1, true, msec(10));
  m.record(1, 2, true, msec(20));
  m.record(1, 3, false, msec(30));
  const Histogram reads = m.merged_reads({1, 2, 3});
  EXPECT_EQ(reads.count(), 2);
  const Histogram writes = m.merged_writes({1, 2, 3});
  EXPECT_EQ(writes.count(), 1);
}

TEST(CostModelTest, SizeCostScalesLinearly) {
  harness::CostModel cm;
  EXPECT_EQ(cm.size_cost(0), 0);
  EXPECT_EQ(cm.size_cost(4096), cm.per_4kb);
  EXPECT_EQ(cm.size_cost(8192), 2 * cm.per_4kb);
}

/// Records when each packet is handled; every packet costs 10 ms of CPU.
struct TimedHandler : harness::PacketHandler {
  explicit TimedHandler(sim::Simulator& s) : sim(s) {}
  void handle(const net::Packet&) override { at.push_back(sim.now()); }
  [[nodiscard]] Duration cost_of(const net::Packet&) const override {
    return msec(10);  // expensive processing
  }
  sim::Simulator& sim;
  std::vector<Time> at;
};

struct CpuRun {
  std::vector<Time> handled;
  Duration busy = 0;
};

/// Two packets sent to one receiver at once. The receiver bills its own CPU,
/// or `shared_cpu` when given.
CpuRun two_packets(sim::SerialResource* shared_cpu) {
  sim::Simulator sim(3);
  sim::Network net(sim, test::lan_matrix());
  harness::NodeHost sender(sim, net, 0);
  harness::NodeHost receiver(sim, net, 0, 0.0, shared_cpu);
  TimedHandler handler(sim);
  receiver.attach(&handler);
  net.send(sender.id(), receiver.id(), 1, 10);
  net.send(sender.id(), receiver.id(), 2, 10);
  sim.run_for(msec(100));
  return {handler.at, receiver.cpu_busy()};
}

TEST(NodeHostTest, CpuQueueDelaysProcessing) {
  // Two messages arrive ~together; the second waits behind the first.
  const CpuRun own = two_packets(nullptr);
  ASSERT_EQ(own.handled.size(), 2u);
  EXPECT_GE(own.handled[1], msec(20));  // ~arrival + 2 x 10 ms service
  EXPECT_EQ(own.busy, msec(20));
  // A machine CPU no other host uses bills exactly what an owned one does.
  sim::SerialResource machine;
  const CpuRun shared = two_packets(&machine);
  EXPECT_EQ(shared.handled, own.handled);
  EXPECT_EQ(shared.busy, own.busy);
  EXPECT_EQ(machine.busy_time(), own.busy);
}

TEST(NodeHostTest, CoLocatedHostsQueueOnTheMachineCpu) {
  sim::Simulator sim(3);
  sim::Network net(sim, test::lan_matrix());
  sim::SerialResource machine;
  harness::NodeHost sender(sim, net, 0);
  harness::NodeHost first(sim, net, 0, 0.0, &machine);
  harness::NodeHost second(sim, net, 0, 0.0, &machine);
  TimedHandler h1(sim), h2(sim);
  first.attach(&h1);
  second.attach(&h2);
  net.send(sender.id(), first.id(), 1, 10);
  net.send(sender.id(), first.id(), 2, 10);
  // Both of first's packets are queued (one 5 ms hop) and neither is done
  // when second's packet lands, so it waits behind both services.
  sim.run_for(msec(8));
  net.send(sender.id(), second.id(), 3, 10);
  sim.run_for(msec(100));
  ASSERT_EQ(h1.at.size(), 2u);
  ASSERT_EQ(h2.at.size(), 1u);
  EXPECT_EQ(h2.at[0], h1.at[1] + msec(10));
  // Either host reads the machine's busy time, not its own share.
  EXPECT_EQ(machine.busy_time(), msec(30));
  EXPECT_EQ(first.cpu_busy(), msec(30));
  EXPECT_EQ(second.cpu_busy(), msec(30));
}

TEST(NodeHostTest, CrashDropsPacketsWaitingOnTheCpu) {
  // Two packets wait behind 10 ms services when the member crashes and a new
  // incarnation attaches in the same instant, as ReplicaGroup::restart does
  // for an up member. They were the crashed incarnation's: neither runs.
  sim::Simulator sim(3);
  sim::Network net(sim, test::lan_matrix());
  harness::NodeHost sender(sim, net, 0);
  harness::NodeHost receiver(sim, net, 0);
  TimedHandler crashed(sim), rebuilt(sim);
  receiver.attach(&crashed);
  net.send(sender.id(), receiver.id(), 1, 10);
  net.send(sender.id(), receiver.id(), 2, 10);
  sim.run_for(msec(8));  // both queued (one ~5 ms hop), neither done
  ASSERT_EQ(receiver.cpu_busy(), msec(20));
  ASSERT_TRUE(crashed.at.empty());
  receiver.invalidate_scheduled();
  receiver.detach();
  receiver.attach(&rebuilt);
  sim.run_for(msec(100));
  EXPECT_TRUE(crashed.at.empty());
  EXPECT_TRUE(rebuilt.at.empty());
  // What arrives after the restart is the new incarnation's.
  net.send(sender.id(), receiver.id(), 3, 10);
  sim.run_for(msec(100));
  EXPECT_EQ(rebuilt.at.size(), 1u);
}

TEST(NodeHostTest, SendChargesTheCodecSize) {
  // A message's wire size is its codec's: the Env's send looks it up, and a
  // payload type with no codec cannot leave through it.
  sim::Simulator sim(3);
  sim::Network net(sim, test::lan_matrix());
  harness::NodeHost sender(sim, net, 0);
  harness::NodeHost receiver(sim, net, 0);
  struct Recorder : harness::PacketHandler {
    void handle(const net::Packet& p) override { bytes.push_back(p.bytes); }
    std::vector<size_t> bytes;
  } recorder;
  receiver.attach(&recorder);
  raft::AppendEntries ae;
  ae.term = 2;
  ae.leader = sender.id();
  ae.prev_index = 4;
  ae.entries.push_back(
      raft::Entry{2, kv::Command{kv::Op::kPut, 1, 2, 64, 3, 1}});
  const raft::Message m{ae};
  sender.send(receiver.id(), m);
  sim.run_for(msec(100));
  ASSERT_EQ(recorder.bytes.size(), 1u);
  EXPECT_EQ(recorder.bytes[0], raft::wire_size(m));
  EXPECT_EQ(net.bytes_sent(), raft::wire_size(m));
  EXPECT_THROW(sender.send(receiver.id(), std::any(42)), CheckFailure);
  EXPECT_EQ(net.messages_sent(), 1u);
}

// ---------------------------------------------------------------------------
// LogServer billing: the one adapter asks the protocol node how many log
// entries a packet carries, and drops what no node of its protocol reads.
// ---------------------------------------------------------------------------

/// A registry-built 3-replica `protocol` cluster with CPU costs on.
std::unique_ptr<harness::Cluster> costed_cluster(const std::string& protocol) {
  harness::ClusterConfig cfg = test::lan_config(9);
  cfg.num_replicas = 3;
  cfg.costs = harness::CostModel{};
  auto cluster = std::make_unique<harness::Cluster>(cfg);
  cluster->build_replicas(protocol);
  return cluster;
}

/// A 4 KB put, so every multi-entry message below has a non-zero size cost.
kv::Command big_put(uint64_t key) {
  return kv::Command{kv::Op::kPut, key, key, 4096, 0, 0};
}

/// Bills `payload` (a `bytes`-byte protocol message carrying `entries` log
/// entries) at replica 1: message_base + entries x entry_follower +
/// size_cost(bytes).
void expect_entry_billing(const std::string& protocol, std::any payload,
                          size_t bytes, int64_t entries) {
  const auto cluster = costed_cluster(protocol);
  const harness::CostModel& c = cluster->config().costs;
  const net::Packet p = test::packet(cluster->replica_id(0),
                                     cluster->replica_id(1), bytes,
                                     std::move(payload));
  ASSERT_GT(c.size_cost(bytes), 0);
  EXPECT_EQ(cluster->server(1).cost_of(p),
            c.message_base + entries * c.entry_follower + c.size_cost(bytes))
      << protocol;
}

TEST(LogServerCostTest, RaftAppendEntriesBillsEachEntry) {
  raft::AppendEntries ae;
  for (uint64_t k = 1; k <= 3; ++k) ae.entries.push_back({1, big_put(k)});
  expect_entry_billing("raft", raft::Message{ae}, raft::wire_size(ae), 3);
}

TEST(LogServerCostTest, RaftStarAppendEntriesBillsEachEntry) {
  raftstar::AppendEntries ae;
  for (uint64_t k = 1; k <= 3; ++k) ae.entries.push_back({1, big_put(k)});
  expect_entry_billing("raftstar", raftstar::Message{ae},
                       raftstar::wire_size(ae), 3);
}

TEST(LogServerCostTest, PaxosAcceptBatchAndPrepareOkBillEachEntry) {
  paxos::AcceptBatch ab;
  for (uint64_t k = 1; k <= 4; ++k) ab.cmds.push_back(big_put(k));
  expect_entry_billing("multipaxos", paxos::Message{ab}, paxos::wire_size(ab),
                       4);
  paxos::PrepareOk ok;
  for (int64_t i = 1; i <= 2; ++i) {
    ok.accepted.push_back({i, {}, big_put(static_cast<uint64_t>(i))});
  }
  expect_entry_billing("multipaxos", paxos::Message{ok}, paxos::wire_size(ok),
                       2);
}

TEST(LogServerCostTest, MenciusAcceptOwnBillsEachEntry) {
  mencius::AcceptOwn ao;
  for (int64_t i = 0; i < 5; ++i) {
    ao.items.push_back({i * 3, big_put(static_cast<uint64_t>(i + 1))});
  }
  expect_entry_billing("mencius", mencius::Message{ao},
                       mencius::wire_size(ao), 5);
}

class LogServerForeignPacketTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(LogServerForeignPacketTest, LeaseMessageIsBilledAsAReceiveAndDropped) {
  const auto cluster = costed_cluster(GetParam());
  const harness::CostModel& c = cluster->config().costs;
  const lease::Message grant{lease::Grant{0, 1, sec(2)}};
  const net::Packet p =
      test::packet(cluster->replica_id(0), cluster->replica_id(1),
                   lease::wire_size(grant), grant);
  harness::LogServer& server = cluster->server(1);
  EXPECT_EQ(server.cost_of(p), c.receive_cost(p.bytes));
  EXPECT_EQ(server.node_iface().entries_in(p), std::nullopt);
  // Handing the packet to the node would CHECK-fail on a foreign payload.
  server.handle(p);
}

INSTANTIATE_TEST_SUITE_P(
    RegistryProtocols, LogServerForeignPacketTest,
    ::testing::Values("raft", "raftstar", "multipaxos", "mencius"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(ClusterTest, DefaultSitesAssignRoundRobin) {
  harness::ClusterConfig cfg = test::lan_config(5);
  cfg.num_replicas = 5;
  harness::Cluster cluster(cfg);
  cluster.build_replicas(test::make_factory<raft::RaftNode>(
      test::fast_options<raft::Options>()));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(cluster.server(i).site(), i);
  }
  EXPECT_EQ(cluster.group_template().members.size(), 5u);
}

TEST(ClusterTest, EstablishLeaderRespectsPreference) {
  for (int preferred : {0, 2, 4}) {
    harness::Cluster cluster(test::lan_config(6));
    cluster.build_replicas(test::make_factory<raft::RaftNode>(
        test::fast_options<raft::Options>()));
    EXPECT_EQ(cluster.establish_leader(preferred), preferred);
  }
}

TEST(ClientTest, RetriesAfterTimeout) {
  // A cluster with a permanently-dead server: the client must keep retrying.
  harness::Cluster cluster(test::lan_config(7));
  cluster.build_replicas(test::make_factory<raft::RaftNode>(
      test::fast_options<raft::Options>()));
  cluster.net().faults().crash(cluster.server(0).id(), 0, sec(600));
  cluster.metrics().set_window(0, kTimeMax);
  kv::WorkloadConfig wl = test::small_workload();
  // Only site-0 clients, talking to the dead replica.
  kv::WorkloadGenerator gen(wl, 0, Rng(1));
  auto& host = cluster.make_host(0);
  harness::ClosedLoopClient::Options copt;
  copt.retry_timeout = sec(1);
  harness::Metrics metrics;
  const NodeId dead = cluster.server(0).id();
  harness::ClosedLoopClient client(
      host, [dead](const kv::Command&) { return dead; }, std::move(gen),
      metrics, copt);
  client.start();
  cluster.run_for(sec(5));
  EXPECT_GE(client.retries(), 3u);
  EXPECT_EQ(client.completed(), 0u);
}

TEST(ClientTest, LatencyCountsFromFirstSend) {
  // The client's replica is down for 2.5 s while its first op retries every
  // second: the recorded latency spans the whole outage, not just the
  // attempt that got through (after the heal the replica forwards it to
  // whoever leads).
  harness::ClusterConfig cfg = test::lan_config(7);
  cfg.num_replicas = 3;
  harness::Cluster cluster(cfg);
  cluster.build_replicas(test::make_factory<raft::RaftNode>(
      test::fast_options<raft::Options>()));
  ASSERT_EQ(cluster.establish_leader(0), 0);
  const NodeId replica = cluster.server(0).id();
  const Time down_at = cluster.sim().now();
  cluster.net().faults().crash(replica, down_at, down_at + msec(2500));
  kv::WorkloadGenerator gen(test::small_workload(), 0, Rng(1));
  harness::ClosedLoopClient::Options copt;
  copt.start_at = down_at;
  copt.retry_timeout = sec(1);
  harness::Metrics metrics;
  metrics.set_window(0, kTimeMax);
  harness::ClosedLoopClient client(
      cluster.make_host(0), [replica](const kv::Command&) { return replica; },
      std::move(gen), metrics, copt);
  Duration first_latency = -1;
  client.set_reply_probe(
      [&](const kv::Command&, uint64_t, bool, Time sent_at, Time recv_at) {
        if (first_latency < 0) first_latency = recv_at - sent_at;
      });
  client.start();
  cluster.run_for(sec(5));
  ASSERT_GE(client.retries(), 2u);
  ASSERT_GT(client.completed(), 0u);
  EXPECT_GE(first_latency, msec(2500));
  EXPECT_GE(std::max(metrics.reads(0).max(), metrics.writes(0).max()),
            msec(2500));
}

// ---------------------------------------------------------------------------
// Experiment-runner smoke tests: every system of Figs. 9/10 boots, elects,
// commits and reports sane figures end-to-end (parameterized).
// ---------------------------------------------------------------------------

class ExperimentSmokeTest
    : public ::testing::TestWithParam<harness::SystemKind> {};

TEST_P(ExperimentSmokeTest, RunsAndCommits) {
  harness::ExperimentConfig cfg;
  cfg.system = GetParam();
  cfg.clients_per_region = 5;
  cfg.workload.read_fraction = 0.5;
  cfg.workload.conflict_rate = 0.05;
  cfg.run = sec(4);
  cfg.warmup = sec(2);
  cfg.cooldown = msec(500);
  cfg.cluster.seed = 777;
  const auto res = harness::run_experiment(cfg);
  EXPECT_GT(res.throughput_ops, 10.0)
      << harness::system_name(cfg.system);
  // Latency sanity: nothing below the intra-site RTT floor, nothing above
  // the client retry timeout.
  const auto check = [&](const harness::LatencySummary& s) {
    if (s.count == 0) return;
    EXPECT_GT(s.p50, 0);
    EXPECT_LT(s.p99, sec(5));
  };
  check(res.leader_reads);
  check(res.leader_writes);
  check(res.follower_reads);
  check(res.follower_writes);
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, ExperimentSmokeTest,
    ::testing::Values(harness::SystemKind::kRaft, harness::SystemKind::kRaftStar,
                      harness::SystemKind::kPaxos, harness::SystemKind::kMencius,
                      harness::SystemKind::kRaftStarPql,
                      harness::SystemKind::kRaftStarLL,
                      harness::SystemKind::kRaftStarMencius),
    [](const ::testing::TestParamInfo<harness::SystemKind>& info) {
      std::string n = harness::system_name(info.param);
      for (char& c : n) {
        if (c == '*') c = 'S';
        if (c == '-') c = '_';
      }
      return n;
    });

// Several groups: the same driver runs a sharded point, warming up every
// group's member 0 as its leader.
TEST(ExperimentShardedTest, TwoGroupsOverFiveMachinesCommit) {
  harness::ExperimentConfig cfg;
  cfg.system = harness::SystemKind::kPaxos;
  cfg.cluster.num_groups = 2;
  cfg.cluster.num_machines = 5;
  cfg.cluster.latency = sim::LatencyMatrix(5, msec(1));
  cfg.cluster.seed = 780;
  cfg.workload.read_fraction = 0.5;
  cfg.clients_per_region = 5;
  cfg.run = sec(2);
  cfg.warmup = sec(1);
  cfg.cooldown = msec(500);
  // run_experiment CHECK-fails unless both groups elect a leader.
  harness::ExperimentResult res;
  ASSERT_NO_THROW(res = harness::run_experiment(cfg));
  EXPECT_GT(res.throughput_ops, 0.0);
  EXPECT_GT(res.writes.count, 0);
  EXPECT_GT(res.reads.count, 0);
  EXPECT_EQ(res.writes.count,
            res.leader_writes.count + res.follower_writes.count);
}

// Latency ordering properties across systems (the Fig. 9 story in one test).
TEST(ExperimentPropertyTest, PqlReadsBeatRaftReads) {
  harness::ExperimentConfig cfg;
  cfg.clients_per_region = 10;
  cfg.workload.read_fraction = 1.0;
  cfg.workload.conflict_rate = 0.0;
  cfg.run = sec(5);
  cfg.warmup = sec(3);
  cfg.cluster.seed = 778;
  cfg.system = harness::SystemKind::kRaftStarPql;
  const auto pql = harness::run_experiment(cfg);
  cfg.system = harness::SystemKind::kRaft;
  const auto raft = harness::run_experiment(cfg);
  EXPECT_LT(pql.follower_reads.p50, msec(10));
  EXPECT_GT(raft.follower_reads.p50, msec(50));
}

TEST(ExperimentPropertyTest, MenciusAvoidsForwardingLatency) {
  harness::ExperimentConfig cfg;
  cfg.clients_per_region = 10;
  cfg.workload.read_fraction = 0.0;
  cfg.workload.conflict_rate = 0.0;
  cfg.run = sec(5);
  cfg.warmup = sec(3);
  cfg.cluster.seed = 779;
  cfg.system = harness::SystemKind::kRaftStarMencius;
  const auto mencius = harness::run_experiment(cfg);
  cfg.system = harness::SystemKind::kRaft;
  cfg.leader_replica = 4;  // Seoul: worst forwarding case
  const auto raft = harness::run_experiment(cfg);
  // Every Mencius region commits via its own nearest quorum; Raft-Seoul's
  // followers pay forwarding to the farthest leader.
  EXPECT_LT(mencius.follower_writes.p50, raft.follower_writes.p50);
}

}  // namespace
}  // namespace praft
