#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/check.h"
#include "consensus/node_iface.h"
#include "consensus/registry.h"
#include "consensus/trace.h"
#include "harness/cost_model.h"
#include "harness/host.h"
#include "harness/messages.h"
#include "kv/store.h"

namespace praft::harness {

/// The replica adapter every protocol runs behind: it owns the KV state
/// machine and the client-facing reply. Client requests (reads AND writes —
/// the paper's baselines persist reads in the log, §4.4 "Paxos Quorum
/// Lease") are submitted at the leader; follower replicas forward to the
/// leader etcd-style and relay the reply.
///
/// The protocol node behind the adapter is runtime-polymorphic
/// (consensus::NodeIface): construct with a registry name to pick the
/// protocol at runtime, or hand in a concretely-built node (see
/// TypedLogServer below) when the adapter needs protocol-specific hooks.
/// Optimizations that answer requests another way (PQL/LL local reads,
/// Mencius early ack) override the one request hook, try_serve().
///
/// The replica's stable storage is its host's (consensus::Env::store): when
/// it already holds durable state, the node is rebuilt from it
/// (crash-restart recovery) before start().
class LogServer : public PacketHandler {
 public:
  /// Selects the protocol by registry name ("raft", "raftstar",
  /// "multipaxos" or "mencius"; consensus::make_node).
  LogServer(NodeHost& host, consensus::Group group, CostModel costs,
            const std::string& protocol,
            const consensus::TimingOptions& timing = {})
      : LogServer(host, costs,
                  consensus::make_node(protocol, std::move(group), host,
                                       timing)) {}

  /// Wraps an already-constructed node (typed adapters, tests).
  LogServer(NodeHost& host, CostModel costs,
            std::unique_ptr<consensus::NodeIface> node)
      : host_(host), costs_(costs), node_(std::move(node)) {
    PRAFT_CHECK_MSG(node_ != nullptr, "LogServer needs a protocol node");
    host_.attach(this);
    node_->set_apply([this](consensus::LogIndex i, const kv::Command& c) {
      on_apply(i, c);
    });
    // Snapshot plumbing: the adapter owns the state machine, so it supplies
    // the capture/restore halves of the ported Checkpoint action. Without
    // these hooks the node can neither compact nor install snapshots.
    node_->set_state_hooks(
        [this] { return store_.image(); },
        [this](const kv::StoreImage& img, consensus::LogIndex last_index) {
          store_.restore(img);
          // Replies pending at snapshot-covered indexes can never be served
          // from an apply anymore; drop them (clients retry end-to-end).
          pending_.erase(pending_.begin(),
                         pending_.upper_bound(last_index));
          if (consensus::Trace* t = host_.trace()) {
            t->on_snapshot_install(id(), last_index, store_.fingerprint());
          }
        });
    // Crash-restart recovery: a store that already holds durable state means
    // this server replaces a crashed incarnation — rebuild the node from it
    // (state hooks above are live, so the snapshot restores and the WAL
    // suffix re-applies into the fresh kv store).
    if (const storage::DurableStore* disk = host_.store();
        disk != nullptr && disk->has_state()) {
      recovery_ = node_->recover(disk->image());
    }
  }

  /// Starts the node. PQL and LL also start their lease managers here.
  virtual void start() { node_->start(); }
  [[nodiscard]] bool is_leader() const { return node_->is_leader(); }
  [[nodiscard]] NodeId leader_hint() const { return node_->leader_hint(); }
  /// True when the protocol has no single elected leader (see
  /// consensus::NodeIface::leaderless).
  [[nodiscard]] bool leaderless() const { return node_->leaderless(); }
  /// Kicks off an immediate election attempt (used to pin the leader site).
  void trigger_election() { node_->force_election(); }
  /// Highest position this replica knows committed (the replica's committed
  /// prefix, exposed for chaos/invariant tracing).
  [[nodiscard]] consensus::LogIndex commit_index() const {
    return node_->commit_index();
  }

  [[nodiscard]] NodeId id() const { return host_.id(); }
  [[nodiscard]] SiteId site() const { return host_.site(); }
  /// The replicated KV state machine (the durable store is host().store()).
  [[nodiscard]] const kv::KvStore& store() const { return store_; }
  [[nodiscard]] NodeHost& host() { return host_; }

  consensus::NodeIface& node_iface() { return *node_; }
  [[nodiscard]] const consensus::NodeIface& node_iface() const {
    return *node_;
  }

  /// What recovery did when this server was rebuilt from a durable store
  /// (recovered == false for a fresh start).
  [[nodiscard]] const storage::RecoveryStats& recovery() const {
    return recovery_;
  }

  /// Test probe: observes every (index, command) this replica applies.
  using ApplyProbe =
      std::function<void(NodeId, consensus::LogIndex, const kv::Command&)>;
  void set_apply_probe(ApplyProbe probe) { apply_probe_ = std::move(probe); }

  void handle(const net::Packet& p) override {
    if (const auto* hm = net::payload_as<Message>(p)) {
      on_harness_message(*hm);
      return;
    }
    if (handle_other(p)) return;
    // Silently drop foreign packet families (a lease message reaching a
    // plain replica, etc.) instead of letting the node CHECK-fail on them.
    if (node_->entries_in(p)) node_->on_packet(p);
  }

  [[nodiscard]] Duration cost_of(const net::Packet& p) const override {
    // Every branch charges from p.bytes — the exact encoded frame size —
    // so a 4 KB-value request costs more to receive than an 8 B one, and
    // replies (which echo commands on the forward path) are billed for what
    // they actually carry.
    if (const auto* hm = net::payload_as<Message>(p)) {
      if (std::holds_alternative<ClientRequest>(*hm)) {
        return (is_leader() ? costs_.client_request : costs_.forward_handle) +
               costs_.size_cost(p.bytes);
      }
      if (std::holds_alternative<Forward>(*hm)) {
        return costs_.client_request + costs_.size_cost(p.bytes);
      }
      return costs_.receive_cost(p.bytes);
    }
    if (const auto entries = node_->entries_in(p)) {
      return costs_.message_base +
             static_cast<Duration>(*entries) * costs_.entry_follower +
             costs_.size_cost(p.bytes);
    }
    return costs_.receive_cost(p.bytes);
  }

 protected:
  /// Subclasses (PQL, LL) intercept extra message families here. Return true
  /// when the packet was consumed; anything else goes to the protocol node.
  virtual bool handle_other(const net::Packet& p) {
    (void)p;
    return false;
  }

  /// The request hook: sees every client request this replica receives,
  /// directly (`origin` == kNoNode) or forwarded by server `origin`. Return
  /// true when the subclass took the request over — it answers through
  /// reply(), now or later. Returning false submits it to the log at the
  /// leader (forwarding or retrying as needed), answered at apply.
  virtual bool try_serve(const kv::Command& cmd, NodeId origin) {
    (void)cmd;
    (void)origin;
    return false;
  }

  /// Answers `cmd` with `value`: to its client directly, or through a
  /// ForwardReply to `origin` when another server forwarded the request.
  void reply(const kv::Command& cmd, NodeId origin, uint64_t value) {
    if (origin != kNoNode && origin != id()) {
      ForwardReply fr{cmd, value, true};
      host_.send(origin, Message{fr});
    } else {
      reply_to_client(cmd.client, cmd.seq, value, true);
    }
  }

  void reply_to_client(NodeId client, uint64_t seq, uint64_t value, bool ok) {
    ClientReply r{seq, value, ok, id()};
    host_.send(client, Message{r});
  }

  void on_harness_message(const Message& hm) {
    if (const auto* req = std::get_if<ClientRequest>(&hm)) {
      submit_or_forward(req->cmd, /*origin=*/kNoNode);
    } else if (const auto* fwd = std::get_if<Forward>(&hm)) {
      submit_or_forward(fwd->cmd, fwd->origin);
    } else if (const auto* fr = std::get_if<ForwardReply>(&hm)) {
      reply_to_client(fr->cmd.client, fr->cmd.seq, fr->value, fr->ok);
    }
    // ClientReply is never addressed to a server.
  }

  void submit_or_forward(const kv::Command& cmd, NodeId origin) {
    if (try_serve(cmd, origin)) return;
    if (node_->is_leader()) {
      const consensus::LogIndex idx = node_->submit(cmd);
      if (idx >= 0) {
        pending_[idx] = PendingOp{origin, cmd};
        return;
      }
    }
    const NodeId leader = node_->leader_hint();
    if (origin == kNoNode) {
      if (leader != kNoNode && leader != id()) {
        Forward f{cmd, id()};
        host_.send(leader, Message{f});
      } else {
        // No known leader yet (startup or failover window), or a full
        // replication pipe here: re-attempt shortly instead of forcing the
        // client into its long retry.
        host_.schedule(msec(100),
                       [this, cmd] { submit_or_forward(cmd, kNoNode); });
      }
    }
    // Forwarded requests that miss the leader are dropped; the origin
    // server's client retries end-to-end.
  }

  void on_apply(consensus::LogIndex idx, const kv::Command& cmd) {
    const kv::ApplyResult res = store_.apply(cmd);
    if (apply_probe_) apply_probe_(id(), idx, cmd);
    on_applied_hook(idx, cmd);
    auto it = pending_.find(idx);
    if (it == pending_.end()) return;
    // A leader change may have replaced the entry at this index: reply only
    // when the committed command is the one we proposed.
    const bool ours = it->second.cmd == cmd;
    const NodeId origin = it->second.origin;
    pending_.erase(it);
    if (ours) reply(cmd, origin, res.value);
  }

  /// Subclass hook invoked after each apply (PQL wakes pending local reads).
  virtual void on_applied_hook(consensus::LogIndex idx,
                               const kv::Command& cmd) {
    (void)idx;
    (void)cmd;
  }

  NodeHost& host_;
  CostModel costs_;
  kv::KvStore store_;
  std::unique_ptr<consensus::NodeIface> node_;

 private:
  /// A proposed client op awaiting its apply: the command (checked against
  /// what commits, since a leader change may replace the entry) and the
  /// forwarding server to relay the reply through (kNoNode: answer the
  /// client directly).
  struct PendingOp {
    NodeId origin = kNoNode;
    kv::Command cmd;
  };

  // Ordered by log index: a snapshot install drops the covered prefix, and
  // any walk over the map must be seed-stable (lint rule D1).
  std::map<consensus::LogIndex, PendingOp> pending_;
  ApplyProbe apply_probe_;
  storage::RecoveryStats recovery_;
};

/// A LogServer over a concretely-typed node, for adapters (and tests) that
/// need the node's own API: PQL and LL install Raft*-specific observers,
/// Mencius acks early, tests read skip counters. Arguments after `costs`
/// (the protocol's Options) go to Node's constructor.
template <typename Node>
class TypedLogServer : public LogServer {
 public:
  template <typename... NodeArgs>
  TypedLogServer(NodeHost& host, consensus::Group group, CostModel costs,
                 NodeArgs&&... node_args)
      : LogServer(host, costs,
                  std::make_unique<Node>(
                      std::move(group), host,
                      std::forward<NodeArgs>(node_args)...)) {}

  Node& node() { return static_cast<Node&>(*node_); }
  [[nodiscard]] const Node& node() const {
    return static_cast<const Node&>(*node_);
  }
};

}  // namespace praft::harness
