#include "paxos/node.h"

#include <algorithm>

#include "common/check.h"
#include "common/logging.h"

namespace praft::paxos {

PaxosNode::PaxosNode(consensus::Group group, consensus::Env& env, Options opt)
    : NodeIface(env.stats()),
      group_(std::move(group)),
      env_(env),
      opt_(opt),
      persister_(env, group_.self, opt_.fsync_duration, opt_.sync_batch_delay,
                 [this] { return hard_state(); }),
      election_(env, opt_.election_timeout_min, opt_.election_timeout_max),
      heartbeat_(env),
      batcher_(env, opt_, [this] { flush_batch(); }),
      pipe_(opt_, env.stats()) {
  group_.validate();
  applier_.set_trace(env_, group_.self);
  ballot_ = Ballot{0, kNoNode};
  // Write-ahead mirroring: persist_inst() routes each instance's full
  // accepted/chosen state through this hook into one coalescing WAL record.
  instances_.set_persistence(
      [this](LogIndex i, const Instance& in) {
        storage::WalRecord r;
        r.index = i;
        r.term = in.bal.round;
        r.vnode = in.bal.node;
        r.decided = in.chosen;
        r.has_value = in.has;
        r.cmd = in.cmd;
        persister_.record(std::move(r));
      });
  instances_.set_floor(0);  // instances are 1-based; nothing pruned yet
  election_.set_gate([this] { return !is_leader(); });
  election_.set_handler([this](bool expired) {
    if (expired) {
      start_prepare();
    } else if (applier_.applied() < commit_floor()) {
      request_missing(commit_floor());  // re-ask for lost LearnValues
    }
  });
  heartbeat_.set_gate([this] { return is_leader(); });
  heartbeat_.set_handler([this] { heartbeat_tick(); });
}

void PaxosNode::start() { election_.start(); }

PaxosNode::Instance& PaxosNode::inst(LogIndex i) {
  PRAFT_CHECK(i >= 1);
  return instances_.materialize(i);
}

const PaxosNode::Instance* PaxosNode::inst_if(LogIndex i) const {
  return instances_.find(i);
}

bool PaxosNode::chosen_at(LogIndex i) const {
  if (i <= commit_floor()) return true;
  const Instance* in = inst_if(i);
  return in != nullptr && in->chosen;
}

const kv::Command* PaxosNode::value_at(LogIndex i) const {
  const Instance* in = inst_if(i);
  return (in != nullptr && in->has) ? &in->cmd : nullptr;
}

void PaxosNode::start_prepare() {
  // Phase1a: pick a ballot higher than anything seen, tagged with our id.
  ballot_ = Ballot{ballot_.round + 1, group_.self};
  phase1_succeeded_ = false;
  preparing_ = true;
  leader_ = kNoNode;
  prepare_acks_.clear();
  prepare_acks_.add(group_.rank_of(group_.self));
  safe_vals_.clear();
  // Self-promise: include our own accepted values.
  for (LogIndex i = commit_floor() + 1; i <= log_tail_; ++i) {
    if (const Instance* in = inst_if(i); in != nullptr && in->has) {
      safe_vals_[i] = AcceptedVal{i, in->bal, in->cmd};
    }
  }
  election_.touch();
  PRAFT_LOG(kDebug) << "paxos " << group_.self << " prepare ballot ("
                    << ballot_.round << "," << ballot_.node << ")";
  persister_.hard_state();  // our own Phase1a promise must survive a crash
  Prepare p{ballot_, group_.self, commit_floor() + 1};
  for (NodeId peer : group_.members) {
    if (peer == group_.self) continue;
    persister_.send(peer, Message{p}, wire_size(p));
  }
  if (prepare_acks_.reached(group_.majority())) finish_prepare();
}

void PaxosNode::on_prepare(const Prepare& m) {
  if (m.bal > ballot_) {
    abandon_leadership();
    ballot_ = m.bal;
    phase1_succeeded_ = false;
    preparing_ = false;
    leader_ = m.sender;
    persister_.hard_state();
    election_.touch();
    PrepareOk ok;
    ok.bal = ballot_;
    ok.sender = group_.self;
    // Compaction: instances at or below our checkpoint floor were chosen
    // and pruned — they cannot be reported as accepted values, so ship the
    // checkpoint itself. The candidate installs it before re-proposing,
    // which keeps it from filling chosen instances with no-ops.
    if (m.from_index <= instances_.floor() && snap_.valid()) {
      ok.has_snap = true;
      ok.snap = snap_;
    }
    for (LogIndex i = m.from_index; i <= log_tail_; ++i) {
      if (const Instance* in = inst_if(i); in != nullptr && in->has) {
        ok.accepted.push_back(AcceptedVal{i, in->bal, in->cmd});
      }
    }
    if (opt_.unsafe_skip_vote_fsync) {
      // TEST-ONLY injected bug: the promise leaves before it hits disk.
      persister_.send_unsynced(m.sender, Message{ok}, wire_size(ok));
    } else {
      persister_.send(m.sender, Message{ok}, wire_size(ok));
    }
  } else {
    Reject r{ballot_, group_.self};
    persister_.send(m.sender, Message{r}, wire_size(r));
  }
}

void PaxosNode::on_prepare_ok(const PrepareOk& m) {
  if (!preparing_ || m.bal != ballot_) return;
  if (!prepare_acks_.add(group_.rank_of(m.sender))) return;
  if (m.has_snap && applier_.install_snapshot(m.snap)) {
    ++env_.stats().snapshots_installed;
    adopt_snapshot(m.snap);
  }
  for (const AcceptedVal& a : m.accepted) {
    auto it = safe_vals_.find(a.index);
    if (it == safe_vals_.end() || a.bal > it->second.bal) {
      safe_vals_[a.index] = a;
    }
  }
  if (prepare_acks_.reached(group_.majority())) finish_prepare();
}

void PaxosNode::finish_prepare() {
  preparing_ = false;
  phase1_succeeded_ = true;
  leader_ = group_.self;
  PRAFT_LOG(kInfo) << "paxos " << group_.self << " leader at ballot ("
                   << ballot_.round << "," << ballot_.node << ")";
  // Re-propose every safe value in the unchosen range; fill holes with
  // no-ops so execution can make progress (classic MultiPaxos recovery).
  LogIndex max_seen = commit_floor();
  if (!safe_vals_.empty()) max_seen = std::max(max_seen, safe_vals_.rbegin()->first);
  std::vector<kv::Command> cmds;
  for (LogIndex i = commit_floor() + 1; i <= max_seen; ++i) {
    auto it = safe_vals_.find(i);
    cmds.push_back(it != safe_vals_.end() ? it->second.cmd : kv::noop_command());
  }
  next_propose_ = max_seen + 1;
  // A fresh reign replicates from scratch: every peer's cursor restarts at
  // the first unchosen instance, and in-flight windows from any prior reign
  // are void (their acks carry the old ballot and would be ignored anyway).
  pipe_.reset_all();
  peer_next_.clear();
  for (NodeId peer : group_.members) {
    if (peer != group_.self) peer_next_[peer] = commit_floor() + 1;
  }
  if (!cmds.empty()) propose_range(commit_floor() + 1, cmds);
  safe_vals_.clear();
  heartbeat_.start(opt_.heartbeat_interval);
}

void PaxosNode::heartbeat_tick() {
  // Loss recovery is per peer and timeout-gated (consensus::PeerPipeline):
  // a peer whose oldest in-flight AcceptBatch outlived the retransmit
  // timeout gets its cursor rolled back to the lowest un-acked instance and
  // re-pumped from there. A steady-state tick — everything acked — sends
  // nothing but the Heartbeat itself (the old code rebroadcast every
  // unchosen instance to every peer each tick).
  Heartbeat hb{ballot_, group_.self, commit_floor()};
  for (NodeId peer : group_.members) {
    if (peer == group_.self) continue;
    if (pipe_.retransmit_due(peer, env_.now())) {
      const LogIndex lo = pipe_.on_loss(peer);
      if (lo >= 1) {
        auto it = peer_next_.find(peer);
        if (it != peer_next_.end()) it->second = std::min(it->second, lo);
      }
      pump_peer(peer);
    }
    persister_.send(peer, Message{hb}, wire_size(hb));
  }
}

LogIndex PaxosNode::submit(const kv::Command& cmd) {
  if (!is_leader()) return -1;
  // Backpressure: a full replication pipe refuses new submissions (temporary
  // -1, retried by the harness) instead of growing pending_ unboundedly.
  if (!batcher_.can_accept()) return -1;
  pending_.push_back(cmd);
  const LogIndex idx = next_propose_ + static_cast<LogIndex>(pending_.size()) - 1;
  batcher_.add_pending(cmd.wire_bytes());
  return idx;
}

void PaxosNode::abandon_leadership() {
  batcher_.cancel();
  pending_.clear();
  // Stale in-flight windows must not gate a future reign's replication.
  pipe_.reset_all();
  peer_next_.clear();
}

void PaxosNode::flush_batch() {
  if (!is_leader() || pending_.empty()) return;
  const LogIndex start = next_propose_;
  next_propose_ += static_cast<LogIndex>(pending_.size());
  std::vector<kv::Command> cmds;
  cmds.swap(pending_);
  propose_range(start, cmds);
}

void PaxosNode::propose_range(LogIndex start,
                              const std::vector<kv::Command>& cmds) {
  // Phase2a. The proposer's implicit self-accept is DEFERRED to the fsync
  // barrier below: counting a volatile local accept toward the quorum would
  // let a value be "chosen" with only commit_quorum-1 durable copies.
  const Ballot bal = ballot_;
  for (size_t k = 0; k < cmds.size(); ++k) {
    const LogIndex i = start + static_cast<LogIndex>(k);
    Instance& in = inst(i);
    if (in.chosen) continue;  // retransmits may cover already-chosen slots
    in.accept_at(bal);
    in.cmd = cmds[k];
    in.has = true;
    log_tail_ = std::max(log_tail_, i);
    persist_inst(i);
  }
  persister_.hard_state();  // log_tail_ moved
  // Ship per peer from each acceptor's own cursor (consensus::PeerPipeline):
  // a peer with window room gets the new range now — possibly alongside
  // older not-yet-shipped instances — while a saturated peer picks it up
  // when its acks reopen the window.
  for (NodeId peer : group_.members) {
    if (peer == group_.self) continue;
    auto it = peer_next_.find(peer);
    if (it == peer_next_.end()) {
      peer_next_[peer] = std::min(start, commit_floor() + 1);
    } else {
      it->second = std::min(it->second, start);
    }
    pump_peer(peer);
  }
  const LogIndex end = start + static_cast<LogIndex>(cmds.size()) - 1;
  persister_.barrier([this, start, end, bal] {
    const int self = group_.rank_of(group_.self);
    for (LogIndex i = start; i <= end; ++i) {
      if (i <= instances_.floor()) continue;
      Instance* in = instances_.find(i);
      if (in == nullptr || in->chosen || !in->has || !(in->bal == bal)) {
        continue;
      }
      in->acks.add(self);
      if (in->acks.reached(opt_.commit_quorum(group_.majority()))) {
        mark_chosen(i);
      }
    }
  });
}

void PaxosNode::pump_peer(NodeId peer) {
  if (!is_leader()) return;
  LogIndex& next = peer_next_[peer];
  // Instances at or below our checkpoint floor were pruned; a peer that far
  // behind repairs via LearnRequest/SnapshotTransfer, not accepts.
  next = std::max(next, instances_.floor() + 1);
  while (pipe_.can_send(peer)) {
    std::vector<kv::Command> cmds;
    size_t payload = 0;
    LogIndex i = next;
    while (i <= log_tail_ && cmds.size() < opt_.max_entries_per_batch) {
      const Instance* in = inst_if(i);
      if (in == nullptr || !in->has) break;
      payload += in->cmd.wire_bytes();
      cmds.push_back(in->cmd);
      ++i;
      if (opt_.batch_flush_bytes > 0 && payload >= opt_.batch_flush_bytes) {
        break;
      }
    }
    if (cmds.empty()) return;  // caught up to the tail (or a hole)
    AcceptBatch ab{ballot_, group_.self, next, cmds, commit_floor()};
    const size_t bytes = wire_size(ab);
    persister_.send(peer, Message{ab}, bytes);
    pipe_.on_send(peer, next, i - 1, bytes, env_.now());
    next = i;
  }
}

void PaxosNode::on_accept(const AcceptBatch& m) {
  if (m.bal < ballot_) {
    Reject r{ballot_, group_.self};
    persister_.send(m.sender, Message{r}, wire_size(r));
    return;
  }
  if (m.bal > ballot_) {
    abandon_leadership();
    ballot_ = m.bal;
    phase1_succeeded_ = false;
    preparing_ = false;
  }
  leader_ = m.sender;
  election_.touch();
  for (size_t k = 0; k < m.cmds.size(); ++k) {
    const LogIndex i = m.start + static_cast<LogIndex>(k);
    // Pruned instances are chosen and inside our checkpoint: never
    // re-materialize them (acking below is still safe — any correct
    // higher-ballot proposal carries the chosen value).
    if (i <= instances_.floor()) continue;
    Instance& in = inst(i);
    if (in.chosen) continue;  // never regress a locally-known chosen value
    in.accept_at(m.bal);
    in.cmd = m.cmds[k];
    in.has = true;
    log_tail_ = std::max(log_tail_, i);
    persist_inst(i);
  }
  persister_.hard_state();
  if (m.commit_floor > commit_floor()) sync_to_floor(m.bal, m.commit_floor);
  if (!m.cmds.empty()) {
    // The ack is what the proposer counts toward the quorum: it leaves only
    // after the accepted values above are durable.
    AcceptOkBatch ok{m.bal, group_.self, m.start,
                     static_cast<LogIndex>(m.cmds.size())};
    persister_.send(m.sender, Message{ok}, wire_size(ok));
  }
}

void PaxosNode::on_accept_ok(const AcceptOkBatch& m) {
  if (!is_leader() || m.bal != ballot_) return;
  // Cumulative ack for the pipeline: the batch covering [start, start+count)
  // arrived and was durably accepted; reopen the window and refill it.
  pipe_.on_ack(m.sender, m.start + m.count - 1, env_.now());
  const int sender = group_.rank_of(m.sender);
  for (LogIndex k = 0; k < m.count; ++k) {
    const LogIndex i = m.start + k;
    if (i <= instances_.floor()) continue;  // chosen + compacted already
    Instance& in = inst(i);
    if (in.chosen || !in.has || in.bal != m.bal) continue;
    in.acks.add(sender);
    if (in.acks.reached(opt_.commit_quorum(group_.majority()))) {
      mark_chosen(i);
    }
  }
  pump_peer(m.sender);
}

void PaxosNode::mark_chosen(LogIndex i) {
  if (i <= instances_.floor()) return;  // chosen + compacted already
  Instance& in = inst(i);
  if (in.chosen) return;
  PRAFT_CHECK_MSG(in.has, "chosen instance without a value");
  in.chosen = true;
  // A chosen value is off the wire for the batching controller.
  if (is_leader()) batcher_.note_acked(in.cmd.wire_bytes());
  persist_inst(i);
  advance_floor();
}

void PaxosNode::advance_floor() {
  // Extend the contiguous chosen watermark, then execute the contiguous
  // LOCALLY-CHOSEN prefix in order. Instances below the floor whose local
  // value is stale (accepted at an older ballot than the one that chose)
  // are repaired via LearnValues before execution — the Applier pauses at
  // the gap without losing the watermark.
  LogIndex floor = commit_floor();
  while (true) {
    const Instance* in = inst_if(floor + 1);
    if (in == nullptr || !in->chosen) break;
    ++floor;
  }
  commit_to(floor);
}

void PaxosNode::commit_to(LogIndex floor) {
  applier_.commit_to(floor, [this](LogIndex i) -> const kv::Command* {
    const Instance* in = inst_if(i);
    return (in != nullptr && in->chosen) ? &in->cmd : nullptr;
  });
  maybe_compact(/*force=*/false);
}

void PaxosNode::maybe_compact(bool force) {
  if (recovering_ || !applier_.can_snapshot()) return;
  const LogIndex target = applier_.applied();
  const auto compactable = static_cast<size_t>(target - instances_.floor());
  if (!opt_.compaction_due(compactable, force)) return;
  snap_.last_index = target;
  snap_.last_term = 0;  // ballot-numbered protocol: no prev-term checks
  snap_.state = applier_.capture_state();
  instances_.set_floor(target);
  persister_.snapshot(snap_);
  PRAFT_LOG(kDebug) << "paxos " << group_.self
                    << " compacted instances to " << target;
}

void PaxosNode::adopt_snapshot(const consensus::Snapshot& snap) {
  // The Applier already restored the store and jumped the watermarks; align
  // the instance storage: everything the snapshot covers is chosen and
  // lives in the state image now.
  if (snap.last_index > snap_.last_index) snap_ = snap;
  persister_.snapshot(snap);
  instances_.set_floor(snap.last_index);
  log_tail_ = std::max(log_tail_, snap.last_index);
  persister_.hard_state();
  PRAFT_LOG(kInfo) << "paxos " << group_.self << " installed snapshot @"
                   << snap.last_index;
  advance_floor();
}

void PaxosNode::on_snapshot_transfer(const SnapshotTransfer& m) {
  if (!applier_.install_snapshot(m.snap)) return;
  ++env_.stats().snapshots_installed;
  adopt_snapshot(m.snap);
  // Gaps may remain between the snapshot and the cluster's floor; resume
  // instance-by-instance repair above the jump.
  request_missing(commit_floor());
}

void PaxosNode::sync_to_floor(const Ballot& sender_bal, LogIndex floor) {
  for (LogIndex i = commit_floor() + 1; i <= floor; ++i) {
    Instance& in = inst(i);
    // The sender (ballot owner) proposes exactly one value per instance per
    // ballot, so a local value accepted at sender_bal IS the chosen value.
    if (!in.chosen && in.has && in.bal == sender_bal) {
      in.chosen = true;
      persist_inst(i);
    }
  }
  commit_to(floor);
  advance_floor();
  request_missing(floor);
}

void PaxosNode::request_missing(LogIndex upto) {
  LogIndex from = 0;
  for (LogIndex i = applier_.applied() + 1; i <= upto; ++i) {
    const Instance* in = inst_if(i);
    if (in == nullptr || !in->chosen) {
      from = i;
      break;
    }
  }
  if (from == 0) return;
  // Ask the leader; a node that IS the leader rotates through its peers
  // instead (it can win an election while still holding a hole below its
  // commit floor — Prepare only covers instances above the floor), and any
  // majority of them holds the chosen values.
  NodeId target = leader_;
  if (target == kNoNode || target == group_.self) {
    const auto n = static_cast<size_t>(group_.n());
    for (size_t k = 0; k < n; ++k) {
      target = group_.members[learn_rr_++ % n];
      if (target != group_.self) break;
    }
    if (target == group_.self) return;  // single-node group
  }
  LearnRequest lr{group_.self, from, upto};
  persister_.send(target, Message{lr}, wire_size(lr));
}

void PaxosNode::on_reject(const Reject& m) {
  if (m.bal > ballot_) {
    abandon_leadership();
    // Adopt the round, not a promise; in the round already promised,
    // {round, kNoNode} sits below the promise, which must stand.
    ballot_ = std::max(ballot_, Ballot{m.bal.round, kNoNode});
    phase1_succeeded_ = false;
    preparing_ = false;
    persister_.hard_state();
    // Back off; the election timer retries Prepare with a higher round.
  }
}

void PaxosNode::on_heartbeat(const Heartbeat& m) {
  if (m.bal < ballot_) return;
  if (m.bal > ballot_) {
    abandon_leadership();
    ballot_ = m.bal;
    phase1_succeeded_ = false;
    preparing_ = false;
    persister_.hard_state();
  }
  leader_ = m.sender;
  election_.touch();
  if (m.commit_floor > commit_floor()) sync_to_floor(m.bal, m.commit_floor);
}

void PaxosNode::on_learn_request(const LearnRequest& m) {
  // A learner asking below our checkpoint floor wants instances we pruned:
  // ship the checkpoint instead of values (commit-floor snapshot learning —
  // the MultiPaxos face of InstallSnapshot).
  if (m.from <= instances_.floor() && snap_.valid()) {
    SnapshotTransfer st{group_.self, snap_};
    persister_.send(m.sender, Message{st}, wire_size(st));
    return;
  }
  LearnValues lv;
  lv.sender = group_.self;
  lv.start = m.from;
  for (LogIndex i = m.from; i <= std::min(m.to, commit_floor()); ++i) {
    const Instance* in = inst_if(i);
    if (in == nullptr || !in->chosen) break;
    lv.cmds.push_back(in->cmd);
  }
  if (!lv.cmds.empty()) persister_.send(m.sender, Message{lv}, wire_size(lv));
}

void PaxosNode::on_learn_values(const LearnValues& m) {
  // Values in a LearnValues are authoritative chosen values (served only
  // from below the sender's floor): they overwrite stale local accepts.
  for (size_t k = 0; k < m.cmds.size(); ++k) {
    const LogIndex i = m.start + static_cast<LogIndex>(k);
    if (i > commit_floor()) break;
    if (i <= instances_.floor()) continue;  // already inside our checkpoint
    Instance& in = inst(i);
    if (in.chosen) continue;
    in.cmd = m.cmds[k];
    in.has = true;
    in.chosen = true;
    log_tail_ = std::max(log_tail_, i);
    persist_inst(i);
  }
  persister_.hard_state();
  advance_floor();
}

storage::RecoveryStats PaxosNode::recover(const storage::DurableImage& img) {
  PRAFT_CHECK_MSG(log_tail_ == 0 && applier_.applied() == 0,
                  "recover() must run once, on a fresh node, before start()");
  recovering_ = true;
  ballot_ = Ballot{img.hard.term, img.hard.vote};
  log_tail_ = std::max<LogIndex>(0, img.hard.tail);
  storage::RecoveryStats stats;
  stats.recovered = true;
  if (img.snap.valid()) {
    applier_.install_snapshot(img.snap);
    instances_.set_floor(img.snap.last_index);
    snap_ = img.snap;
    stats.snapshot_floor = img.snap.last_index;
    log_tail_ = std::max(log_tail_, img.snap.last_index);
  }
  for (const storage::WalRecord& r : img.records) {
    Instance& in = instances_.materialize(r.index);
    in.bal = Ballot{r.term, r.vnode};
    in.cmd = r.cmd;
    in.has = r.has_value;
    in.chosen = r.decided;
    log_tail_ = std::max(log_tail_, r.index);
    ++stats.replayed;
    stats.wal_tail = std::max(stats.wal_tail, r.index);
  }
  stats.wal_tail = std::max(stats.wal_tail, stats.snapshot_floor);
  recovering_ = false;
  // Re-execute the contiguous chosen prefix (exactly the WAL-replay half of
  // recovery; the snapshot already covered everything below its floor).
  advance_floor();
  PRAFT_LOG(kInfo) << "paxos " << group_.self << " recovered: ballot ("
                   << ballot_.round << "," << ballot_.node << "), floor "
                   << commit_floor() << ", tail " << log_tail_;
  return stats;
}

void PaxosNode::on_packet(const net::Packet& p) {
  const auto* msg = net::payload_as<Message>(p);
  PRAFT_CHECK_MSG(msg != nullptr, "paxos node got foreign payload");
  std::visit(
      [this](const auto& m) {
        using M = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<M, Prepare>) {
          on_prepare(m);
        } else if constexpr (std::is_same_v<M, PrepareOk>) {
          on_prepare_ok(m);
        } else if constexpr (std::is_same_v<M, AcceptBatch>) {
          on_accept(m);
        } else if constexpr (std::is_same_v<M, AcceptOkBatch>) {
          on_accept_ok(m);
        } else if constexpr (std::is_same_v<M, Reject>) {
          on_reject(m);
        } else if constexpr (std::is_same_v<M, Heartbeat>) {
          on_heartbeat(m);
        } else if constexpr (std::is_same_v<M, LearnRequest>) {
          on_learn_request(m);
        } else if constexpr (std::is_same_v<M, LearnValues>) {
          on_learn_values(m);
        } else {
          on_snapshot_transfer(m);
        }
      },
      *msg);
}

}  // namespace praft::paxos
