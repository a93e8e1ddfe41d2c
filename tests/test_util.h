#pragma once

#include <any>
#include <map>
#include <memory>
#include <utility>

#include "common/types.h"
#include "harness/cluster.h"
#include "harness/log_server.h"
#include "kv/store.h"
#include "net/packet.h"

namespace praft::test {

/// A hand-built packet for feeding a node directly: `bytes` is the modeled
/// wire size, which nothing checks against an encoding (sim::Network's
/// codec check never ran).
inline net::Packet packet(NodeId from, NodeId to, size_t bytes,
                          std::any payload) {
  net::Packet p;
  p.from = from;
  p.to = to;
  p.bytes = bytes;
  p.payload = std::move(payload);
  return p;
}

/// Applies every command `n` commits to `store` and points `n`'s snapshot
/// hooks at it, so a node driven through a ScriptedEnv can compact its log
/// and install checkpoints.
inline void attach_store(consensus::NodeIface& n, kv::KvStore& store) {
  n.set_apply([&store](consensus::LogIndex, const kv::Command& c) {
    store.apply(c);
  });
  n.set_state_hooks([&store] { return store.image(); },
                    [&store](const kv::StoreImage& img, consensus::LogIndex) {
                      store.restore(img);
                    });
}

/// Records every (index, command) applied by any replica and flags the
/// moment two replicas disagree about one index — the core agreement
/// (safety) property of every protocol in the repo.
struct ApplyRecord {
  std::map<consensus::LogIndex, kv::Command> chosen;
  int64_t observations = 0;
  bool violation = false;

  void observe(NodeId, consensus::LogIndex i, const kv::Command& c) {
    ++observations;
    auto it = chosen.find(i);
    if (it == chosen.end()) {
      chosen.emplace(i, c);
    } else if (!(it->second == c)) {
      violation = true;
    }
  }
};

/// LAN-speed protocol options: tests run in milliseconds of simulated time.
template <typename Opt>
Opt fast_options() {
  Opt o;
  o.election_timeout_min = msec(150);
  o.election_timeout_max = msec(300);
  o.heartbeat_interval = msec(40);
  o.batch_delay = msec(1);
  return o;
}

/// WAN-speed options matching the aws5 latency matrix (max RTT 292 ms).
template <typename Opt>
Opt wan_options() {
  Opt o;
  o.election_timeout_min = msec(1200);
  o.election_timeout_max = msec(2400);
  o.heartbeat_interval = msec(150);
  o.batch_delay = msec(1);
  return o;
}

/// Uniform low-latency matrix for fast protocol tests.
inline sim::LatencyMatrix lan_matrix() {
  sim::LatencyMatrix m(5, msec(10));
  m.set_jitter(0.05);
  return m;
}

/// A cost model that bills nothing: every packet is handled the moment it
/// arrives.
inline harness::CostModel zero_costs() {
  harness::CostModel costs;
  costs.message_base = 0;
  costs.client_request = 0;
  costs.forward_handle = 0;
  costs.entry_follower = 0;
  costs.per_4kb = 0;
  return costs;
}

inline harness::ClusterConfig lan_config(uint64_t seed) {
  harness::ClusterConfig cfg;
  cfg.seed = seed;
  cfg.latency = lan_matrix();
  cfg.costs = zero_costs();
  return cfg;
}

inline harness::ClusterConfig wan_config(uint64_t seed) {
  harness::ClusterConfig cfg;
  cfg.seed = seed;
  cfg.costs = zero_costs();
  return cfg;
}

/// Builds TypedLogServer<Node>s with the node's options `opt` and CPU costs
/// off; `record`, when given, observes every apply.
template <typename Node, typename Opt>
harness::Cluster::ServerFactory make_factory(
    Opt opt, std::shared_ptr<ApplyRecord> record = nullptr) {
  return [opt, record](harness::NodeHost& host, const consensus::Group& g) {
    auto server = std::make_unique<harness::TypedLogServer<Node>>(
        host, g, zero_costs(), opt);
    if (record) {
      server->set_apply_probe(
          [record](NodeId n, consensus::LogIndex i, const kv::Command& c) {
            record->observe(n, i, c);
          });
    }
    return server;
  };
}

/// Applied-state fingerprints of all replicas are equal.
inline bool stores_converged(harness::Cluster& cluster) {
  const uint64_t fp = cluster.server(0).store().fingerprint();
  for (int i = 1; i < cluster.num_replicas(); ++i) {
    if (cluster.server(i).store().fingerprint() != fp) return false;
  }
  return true;
}

inline kv::WorkloadConfig small_workload() {
  kv::WorkloadConfig wl;
  wl.read_fraction = 0.5;
  wl.conflict_rate = 0.1;
  wl.num_records = 1000;
  return wl;
}

/// Sends one command at a time and captures the reply (for scripted
/// sequential scenarios where the closed-loop workload is too coarse).
class OneShotClient : public harness::PacketHandler {
 public:
  explicit OneShotClient(harness::NodeHost& host) : host_(host) {
    host_.attach(this);
  }

  void send(NodeId server, kv::Command cmd) {
    cmd.client = host_.id();
    cmd.seq = ++seq_;
    waiting_ = true;
    harness::ClientRequest req{cmd};
    host_.send(server, harness::Message{req});
  }

  void handle(const net::Packet& p) override {
    const auto* m = net::payload_as<harness::Message>(p);
    if (m == nullptr) return;
    const auto* r = std::get_if<harness::ClientReply>(m);
    if (r == nullptr || r->seq != seq_) return;
    waiting_ = false;
    value_ = r->value;
    ++replies_;
  }

  [[nodiscard]] bool waiting() const { return waiting_; }
  [[nodiscard]] uint64_t value() const { return value_; }
  [[nodiscard]] int replies() const { return replies_; }

 private:
  harness::NodeHost& host_;
  uint64_t seq_ = 0;
  bool waiting_ = false;
  uint64_t value_ = 0;
  int replies_ = 0;
};

}  // namespace praft::test
