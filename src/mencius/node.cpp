#include "mencius/node.h"

#include <algorithm>

#include "common/check.h"
#include "common/logging.h"

namespace praft::mencius {

namespace {
constexpr consensus::Term kDecidedBal = std::numeric_limits<consensus::Term>::max();
/// Recovery-burst cap: one maintenance tick re-offers at most this many own
/// proposals to a colleague, so a healing partition does not flood the wire.
constexpr size_t kMaxRetransmitEntries = 512;
}

MenciusNode::MenciusNode(consensus::Group group, consensus::Env& env,
                         Options opt)
    : NodeIface(env.stats()),
      group_(std::move(group)),
      env_(env),
      opt_(opt),
      persister_(env, group_.self, opt_.fsync_duration, opt_.sync_batch_delay,
                 [this] { return hard_state(); }),
      status_(env),
      batcher_(env, opt_, [this] { flush(); }),
      applier_(/*start=*/-1),
      pipe_(opt_, env.stats()) {
  group_.validate();
  applier_.set_trace(env_, group_.self);
  rank_ = group_.rank_of(group_.self);
  n_ = group_.n();
  next_own_ = rank_;
  // Write-ahead mirroring: persist_slot() routes a slot's full durable
  // state (value ballot, revocation promise, decided flag) through this hook
  // into one coalescing WAL record per slot.
  slots_.set_persistence(
      [this](LogIndex i, const Slot& sl) {
        storage::WalRecord r;
        r.index = i;
        r.term = sl.bal.round;
        r.vnode = sl.bal.node;
        r.promised = sl.promised.round;
        r.pnode = sl.promised.node;
        r.decided = sl.st == St::kDecided;
        r.has_value = sl.st != St::kEmpty;
        r.cmd = sl.cmd;
        persister_.record(std::move(r));
      });
  status_.set_handler([this] { maintenance(); });
  applier_.set_apply([this](LogIndex i, const kv::Command& cmd) {
    on_slot_applied(i, cmd);
  });
}

void MenciusNode::start() {
  last_progress_ = env_.now();
  status_.start(opt_.heartbeat_interval);
}

MenciusNode::Slot& MenciusNode::slot(LogIndex i) {
  PRAFT_CHECK(i >= 0);
  return slots_.materialize(i);
}

const MenciusNode::Slot* MenciusNode::slot_if(LogIndex i) const {
  return slots_.find(i);
}

const kv::Command* MenciusNode::decided_at(LogIndex i) const {
  const auto it = std::lower_bound(
      decided_history_.begin(), decided_history_.end(), i,
      [](const std::pair<LogIndex, kv::Command>& e, LogIndex key) {
        return e.first < key;
      });
  if (it == decided_history_.end() || it->first != i) return nullptr;
  return &it->second;
}

LogIndex MenciusNode::own_decided_floor() {
  // Own slots below the apply floor are decided by construction; resume the
  // residue-class walk where the last call stopped. Unused slots
  // (>= next_own_) are undecided by definition.
  const LogIndex floor = afloor();
  if (own_decided_ < floor) {
    own_decided_ = floor + ((rank_ - floor) % n_ + n_) % n_;
  }
  while (own_decided_ < next_own_) {
    const Slot* s = slot_if(own_decided_);
    if (s == nullptr || s->st != St::kDecided) break;
    own_decided_ += n_;
  }
  return own_decided_;
}

// ---------------------------------------------------------------------------
// Proposing on own slots.
// ---------------------------------------------------------------------------

LogIndex MenciusNode::submit(const kv::Command& cmd) {
  // Backpressure: a full replication pipe refuses new submissions (temporary
  // -1, retried by the harness). A backpressured re-propose (the
  // on_accept_own_rej path) drops the command until the client retries —
  // the same outcome as losing the original Accept.
  if (!batcher_.can_accept()) return -1;
  // A revocation may have consumed own slots we never proposed on (it
  // sweeps the whole range, unused turns included) — without this skip a
  // fresh proposal would stomp a decided slot and resurrect it at ballot 0.
  while (next_own_ < afloor() ||
         (slots_.find(next_own_) != nullptr &&
          slots_.find(next_own_)->st != St::kEmpty)) {
    next_own_ += n_;
  }
  const LogIndex i = next_own_;
  next_own_ += n_;
  max_seen_ = std::max(max_seen_, i);
  Slot& s = slot(i);
  s.st = St::kValued;
  s.cmd = cmd;
  s.bal = Ballot{0, group_.self};
  s.acks.clear();  // self joins via the fsync barrier below
  s.proposed_at = env_.now();
  s.own_pending_ack = true;
  own_unacked_.push_back(i);
  count_op(cmd, +1);
  persist_slot(i);
  persister_.hard_state();  // next_own_ moved: never reuse this slot
  // The owner's implicit self-accept counts toward the ballot-0 quorum only
  // once the value is durable (same rule as the Paxos proposer).
  persister_.barrier([this, i] {
    Slot* sl = slots_.find(i);
    if (sl == nullptr || sl->st != St::kValued ||
        !(sl->bal == Ballot{0, group_.self})) {
      return;
    }
    sl->acks.add(rank_);
    if (sl->acks.reached(opt_.commit_quorum(group_.majority()))) {
      decide(i, sl->cmd);
      advance_floors();
    }
  });
  pending_.push_back(OwnItem{i, cmd});
  // An OwnItem rides the next AcceptOwn as (index, command) — account its
  // exact encoded size toward the byte-budget flush.
  batcher_.add_pending(consensus::wire::entry_bytes(cmd));
  advance_floors();
  return i;
}

void MenciusNode::flush() {
  if (pending_.empty() && pending_skips_.empty()) return;
  for (NodeId peer : group_.members) {
    if (peer == group_.self) continue;
    PeerOut& out = outbox_[peer];
    for (const OwnItem& item : pending_) out.items.push_back(item);
    for (const auto& sk : pending_skips_) out.skips.push_back(sk);
    pump_peer(peer);
  }
  pending_.clear();
  pending_skips_.clear();
}

void MenciusNode::pump_peer(NodeId peer) {
  auto oit = outbox_.find(peer);
  if (oit == outbox_.end()) return;
  PeerOut& out = oit->second;
  // Skip announcements ride ahead of the window when it has room: they are
  // tiny, carry no ack, and unblock the colleague's view of our turns.
  if (pipe_.can_send(peer)) {
    for (const auto& [lo, hi] : out.skips) {
      const SkipRange sr{group_.self, lo, hi};
      persister_.send(peer, Message{sr});
    }
    out.skips.clear();
  }
  while (!out.items.empty() && pipe_.can_send(peer)) {
    // Prune items already executed here: that peer no longer needs our
    // accept for them (it learns them via watermarks or LearnReq).
    while (!out.items.empty() && out.items.front().index < afloor()) {
      out.items.pop_front();
    }
    if (out.items.empty()) return;
    AcceptOwn ao;
    ao.owner = group_.self;
    size_t payload = 0;
    while (!out.items.empty() &&
           ao.items.size() < opt_.max_entries_per_batch) {
      payload += consensus::wire::entry_bytes(out.items.front().cmd);
      ao.items.push_back(std::move(out.items.front()));
      out.items.pop_front();
      if (opt_.batch_flush_bytes > 0 && payload >= opt_.batch_flush_bytes) {
        break;
      }
    }
    ao.decided_floor = own_decided_floor();
    ao.rev_floor = own_rev_floor_;
    const size_t bytes = wire_size(ao);
    persister_.send(peer, Message{ao});
    pipe_.on_send(peer, ao.items.front().index, ao.items.back().index, bytes,
                  env_.now());
  }
}

void MenciusNode::broadcast(Message m) {
  for (NodeId peer : group_.members) {
    if (peer == group_.self) continue;
    persister_.send(peer, m);
  }
}

void MenciusNode::skip_own_upto(LogIndex boundary) {
  if (next_own_ >= boundary) return;
  const LogIndex first = next_own_;
  LogIndex last = first;
  while (next_own_ < boundary) {
    const LogIndex i = next_own_;
    next_own_ += n_;
    max_seen_ = std::max(max_seen_, i);
    if (opt_.decide_own_skips) {
      decide(i, kv::noop_command());
    } else {
      // Ablation A2: the broken hand-port forgets the implicit Phase2b at
      // the proposer; the slot holds the no-op but is never decided here.
      // (A skip is not a proposal, so the retransmission path must not
      // resurrect it either — that is exactly what the hand-port lacks.)
      Slot& s = slot(i);
      if (s.st == St::kEmpty) {
        s.st = St::kValued;
        s.cmd = kv::noop_command();
        s.bal = Ballot{0, group_.self};
        s.proposed_at = kTimeMax / 2;
        persist_slot(i);
      }
    }
    ++slots_skipped_;
    last = i;
  }
  persister_.hard_state();  // next_own_ jumped past the skipped turns
  pending_skips_.emplace_back(first, last + 1);
  batcher_.add_pending(wire_size(SkipRange{group_.self, first, last + 1}));
}

// ---------------------------------------------------------------------------
// Slot state transitions.
// ---------------------------------------------------------------------------

void MenciusNode::count_op(const kv::Command& cmd, int delta) {
  if (cmd.is_noop()) return;
  const auto bump = [&](std::unordered_map<uint64_t, int>& counts) {
    const auto it = counts.try_emplace(cmd.key, 0).first;
    if ((it->second += delta) == 0) counts.erase(it);
  };
  bump(unapplied_ops_);
  if (cmd.is_write()) bump(unapplied_writes_);
}

void MenciusNode::decide(LogIndex i, const kv::Command& cmd) {
  if (i < afloor()) return;
  Slot& s = slot(i);
  if (s.st == St::kDecided) return;
  if (s.st == St::kValued) {
    // A revocation may decide a different value than the one we hold.
    if (!(s.cmd == cmd)) {
      if (owner_of(i) == group_.self) {
        // Our own slot was revoked from under us. Publish that before the
        // decided floor can pass it: peers holding our stale ballot-0 value
        // would otherwise treat "below the owner's decided floor" as
        // authoritative and resurrect the dead value (the auto-decide rule
        // in note_owner_watermark skips the zone below rev_floor).
        own_rev_floor_ = std::max(own_rev_floor_, i);
        persister_.hard_state();
      }
      count_op(s.cmd, -1);
      if (s.own_pending_ack) {
        // Our proposal lost its slot to a revoker's no-op: re-propose it on
        // a fresh own slot (the client sees one completion; the server
        // adapter keys replies on (client, seq)).
        const kv::Command lost = s.cmd;
        s.own_pending_ack = false;
        submit(lost);
      }
      s.cmd = cmd;
      count_op(cmd, +1);
    }
  } else {
    s.cmd = cmd;
    count_op(cmd, +1);
  }
  s.st = St::kDecided;
  s.bal = Ballot{kDecidedBal, kNoNode};
  max_seen_ = std::max(max_seen_, i);
  // A decided own slot is off the wire for the batching controller.
  if (owner_of(i) == group_.self) {
    batcher_.note_acked(consensus::wire::entry_bytes(s.cmd));
  }
  persist_slot(i);
}

void MenciusNode::advance_floors() {
  if (advancing_) return;  // decide()->submit() can re-enter; outer finishes
  advancing_ = true;
  advance_floors_inner();
  advancing_ = false;
}

void MenciusNode::advance_floors_inner() {
  if (info_floor_ < afloor()) info_floor_ = afloor();
  while (true) {
    const Slot* s = slot_if(info_floor_);
    if (s == nullptr || s->st == St::kEmpty) break;
    ++info_floor_;
  }
  const LogIndex before = afloor();
  // Execute the contiguous decided prefix in slot order; the shared applier
  // guarantees exactly-once in-order delivery and pauses at the first
  // undecided slot.
  applier_.drain([this](LogIndex i) -> const kv::Command* {
    const Slot* s = slots_.find(i);
    return (s != nullptr && s->st == St::kDecided) ? &s->cmd : nullptr;
  });
  if (afloor() > before) last_progress_ = env_.now();
  if (info_floor_ < afloor()) info_floor_ = afloor();
  maybe_compact(/*force=*/false);
  try_ack_own();
}

size_t MenciusNode::history_above_floor() const {
  const LogIndex floor = snap_.valid() ? snap_.last_index : -1;
  const auto it = std::lower_bound(
      decided_history_.begin(), decided_history_.end(), floor + 1,
      [](const std::pair<LogIndex, kv::Command>& e, LogIndex key) {
        return e.first < key;
      });
  return static_cast<size_t>(decided_history_.end() - it);
}

void MenciusNode::maybe_compact(bool force) {
  if (recovering_ || !applier_.can_snapshot()) return;
  if (!opt_.compaction_due(history_above_floor(), force)) return;
  // Checkpoint at the applied floor. Unlike the log-structured protocols,
  // Mencius prunes slots at apply time already; what compaction bounds is
  // the decided-value history retained for revocation prepares and learn
  // requests. Keep a warm tail (half the cap) so recent slots are still
  // answered cheaply; anything older is served as a snapshot.
  snap_.last_index = applier_.applied();
  snap_.last_term = 0;
  snap_.state = applier_.capture_state();
  // A forced compaction without a cap (cap == 0) keeps a fixed warm tail:
  // emptying the history entirely would turn every learn/revocation touch
  // of a recently executed slot into a full snapshot transfer.
  constexpr size_t kUncappedWarmTail = 1024;
  const size_t keep =
      opt_.compaction_log_cap > 0 ? opt_.compaction_log_cap / 2
                                  : kUncappedWarmTail;
  while (decided_history_.size() > keep) decided_history_.pop_front();
  persister_.snapshot(snap_);
  PRAFT_LOG(kDebug) << "mencius " << group_.self << " checkpointed @"
                    << snap_.last_index;
}

bool MenciusNode::checkpoint_covers(LogIndex i) {
  if (i > snap_.last_index) maybe_compact(/*force=*/true);
  return i <= snap_.last_index;
}

void MenciusNode::send_snapshot(NodeId to) {
  if (!snap_.valid()) return;
  SnapshotXfer sx{group_.self, snap_};
  persister_.send(to, Message{sx});
}

bool MenciusNode::revocation_done() const {
  const int orank = group_.rank_of(rev_.owner);
  LogIndex i = rev_.lo + (((orank - rev_.lo) % n_) + n_) % n_;
  for (; i < rev_.hi; i += n_) {
    if (i < afloor()) continue;
    const Slot* s = slot_if(i);
    if (s == nullptr || s->st != St::kDecided) return false;
  }
  return true;
}

void MenciusNode::on_snapshot_xfer(const SnapshotXfer& m) {
  owners_[m.from].last_heard = env_.now();
  if (!applier_.install_snapshot(m.snap)) return;
  ++env_.stats().snapshots_installed;
  if (m.snap.last_index > snap_.last_index) snap_ = m.snap;
  persister_.snapshot(m.snap);
  // Our own slots below the jump may have been revoked while we were away;
  // publishing the conservative rev floor keeps peers from auto-deciding a
  // stale ballot-0 value of ours in that zone (explicit learns only).
  own_rev_floor_ = std::max(own_rev_floor_, m.snap.last_index);
  persister_.hard_state();
  // Prune every covered slot, releasing commutativity counters and dropping
  // un-acked own proposals (their slots were decided without us; the client
  // retries through the server adapter).
  slots_.set_floor(m.snap.last_index, [this](LogIndex, const Slot& s) {
    if (s.st != St::kEmpty) count_op(s.cmd, -1);
  });
  max_seen_ = std::max(max_seen_, m.snap.last_index);
  while (next_own_ < afloor()) next_own_ += n_;
  if (info_floor_ < afloor()) info_floor_ = afloor();
  last_progress_ = env_.now();
  if (rev_.active && revocation_done()) rev_.active = false;
  PRAFT_LOG(kInfo) << "mencius " << group_.self << " installed snapshot @"
                   << m.snap.last_index;
  advance_floors();
}

void MenciusNode::on_slot_applied(LogIndex i, const kv::Command& cmd) {
  // Apply-time bookkeeping around the shared applier: release commutativity
  // counters, late-ack our own proposal, retain the decided value for
  // revocation prepares, then prune the slot.
  Slot* s = slots_.find(i);
  PRAFT_CHECK(s != nullptr);
  count_op(s->cmd, -1);
  if (s->own_pending_ack && acked_) acked_(s->cmd);
  if (apply_) apply_(i, cmd);
  decided_history_.emplace_back(i, cmd);
  if (decided_history_.size() > kHistoryCap) decided_history_.pop_front();
  slots_.erase(i);
}

bool MenciusNode::commutes_below(LogIndex /*i*/,
                                 const kv::Command& cmd) const {
  // Conservative: counts cover ALL unexecuted valued slots (including slots
  // above the probed one, which execute after it anyway) — false conflicts
  // only.
  if (cmd.is_noop()) return true;
  if (cmd.is_read()) {
    auto it = unapplied_writes_.find(cmd.key);
    return it == unapplied_writes_.end() || it->second == 0;
  }
  auto it = unapplied_ops_.find(cmd.key);
  const int others = (it == unapplied_ops_.end() ? 0 : it->second) - 1;
  return others <= 0;
}

void MenciusNode::try_ack_own() {
  if (!acked_) {
    own_unacked_.clear();
    return;
  }
  // own_unacked_ ascends and an early ack needs every earlier slot known
  // (i <= info_floor_), so the scan stops at the first slot above the info
  // floor; survivors are compacted in place.
  size_t kept = 0;
  size_t k = 0;
  for (; k < own_unacked_.size() && own_unacked_[k] <= info_floor_; ++k) {
    const LogIndex i = own_unacked_[k];
    // Below the apply floor: acked at apply time (or already re-proposed).
    Slot* s = i < afloor() ? nullptr : slots_.find(i);
    if (s == nullptr || !s->own_pending_ack) continue;
    // Early ack (the Mencius commutativity optimization, §5.2): our value is
    // committed on a majority AND every earlier unexecuted slot is known and
    // commutes with it.
    if (s->st == St::kDecided && commutes_below(i, s->cmd)) {
      s->own_pending_ack = false;
      acked_(s->cmd);
      continue;
    }
    own_unacked_[kept++] = i;
  }
  own_unacked_.erase(own_unacked_.begin() + static_cast<long>(kept),
                     own_unacked_.begin() + static_cast<long>(k));
}

// ---------------------------------------------------------------------------
// Fast-path message handlers.
// ---------------------------------------------------------------------------

void MenciusNode::note_owner_watermark(NodeId owner, LogIndex decided_floor,
                                       LogIndex rev_floor) {
  OwnerView& view = owners_[owner];
  view.floor = std::max(view.floor, decided_floor);
  view.rev_floor = std::max(view.rev_floor, rev_floor);
  if (owner == group_.self) return;
  // Auto-decide: a ballot-0 value from `owner` below its decided watermark
  // (and above its revocation floor) IS the decided value — the owner is the
  // only ballot-0 proposer of its slots. Both floors only rise, so the scan
  // resumes where the last one stopped.
  const LogIndex base = afloor();
  LogIndex& i = view.scan;
  if (i < base) i = base + ((group_.rank_of(owner) - base) % n_ + n_) % n_;
  for (; i < view.floor; i += n_) {
    if (i <= view.rev_floor) continue;  // revoked zone: explicit decides only
    Slot* s = slots_.find(i);
    if (s != nullptr && s->st == St::kValued && s->bal == Ballot{0, owner}) {
      decide(i, s->cmd);
    }
  }
}

void MenciusNode::on_accept_own(const AcceptOwn& m) {
  OwnerView& view = owners_[m.owner];
  view.last_heard = env_.now();
  AcceptOwnOk ok;
  ok.acceptor = group_.self;
  AcceptOwnRej rej;
  rej.acceptor = group_.self;
  LogIndex max_item = -1;
  for (const OwnItem& item : m.items) {
    max_seen_ = std::max(max_seen_, item.index);
    max_item = std::max(max_item, item.index);
    if (item.index < afloor()) {
      // Long since executed. Re-ack only when the decided value IS the
      // owner's value (benign retransmission). A revoked slot was decided
      // no-op: blindly re-acking would let an owner that missed the
      // revocation assemble a majority for a value everyone else skipped —
      // divergent state machines (found by the chaos harness). A slot aged
      // out of the retained history is treated the same as a mismatch:
      // acking a value we cannot confirm risks that divergence, while a
      // reject merely sends the owner through its learn/re-propose path.
      const kv::Command* decided = decided_at(item.index);
      if (decided != nullptr && *decided == item.cmd) {
        ok.indexes.push_back(item.index);
      } else {
        rej.indexes.push_back(item.index);
        rej.jump_past = std::max(rej.jump_past, view.rev_floor);
      }
      continue;
    }
    Slot& s = slot(item.index);
    if (s.promised > Ballot{0, m.owner}) {
      rej.indexes.push_back(item.index);
      rej.jump_past = std::max(rej.jump_past, view.rev_floor);
      continue;
    }
    if (s.st == St::kEmpty) {
      s.st = St::kValued;
      s.cmd = item.cmd;
      s.bal = Ballot{0, m.owner};
      count_op(s.cmd, +1);
      persist_slot(item.index);
      // The owner's watermark may have overtaken this accept: rescan here.
      view.scan = std::min(view.scan, item.index);
    }
    ok.indexes.push_back(item.index);
  }
  // Seeing someone else's slot i means our unused turns below i are dead
  // weight for everyone: cede them (skip tags, paper §A.3).
  if (max_item >= 0) skip_own_upto(max_item);
  note_owner_watermark(m.owner, m.decided_floor, m.rev_floor);
  if (!ok.indexes.empty()) {
    // The ok is what the owner counts toward its ballot-0 quorum: it leaves
    // only after the accepted values above are durable.
    if (opt_.unsafe_skip_vote_fsync) {
      // TEST-ONLY injected bug: Mencius's Phase2b ack is its everyday vote
      // analog (RevPrepareOk, the literal vote, is too rare to convict the
      // bug within the seed budget) — let it leave before the accepted
      // values and the jumped own-slot cursor hit disk.
      persister_.send_unsynced(m.owner, Message{ok});
    } else {
      persister_.send(m.owner, Message{ok});
    }
  }
  if (!rej.indexes.empty()) {
    persister_.send(m.owner, Message{rej});
  }
  advance_floors();
}

void MenciusNode::on_accept_own_ok(const AcceptOwnOk& m) {
  // Cumulative ack for this colleague's stream (indexes arrive in send
  // order, so the max covers every batch up to it); refill its window after
  // the tallies below.
  LogIndex acked = -1;
  for (LogIndex i : m.indexes) acked = std::max(acked, i);
  if (acked >= 0) pipe_.on_ack(m.acceptor, acked, env_.now());
  const int acceptor = group_.rank_of(m.acceptor);
  for (LogIndex i : m.indexes) {
    Slot* s = slots_.find(i);
    if (s == nullptr) continue;
    if (s->st != St::kValued || !(s->bal == Ballot{0, group_.self})) continue;
    if (!s->acks.add(acceptor)) continue;
    if (s->acks.reached(opt_.commit_quorum(group_.majority()))) {
      decide(i, s->cmd);  // committed on a majority at ballot 0
    }
  }
  pump_peer(m.acceptor);
  advance_floors();
}

void MenciusNode::on_accept_own_rej(const AcceptOwnRej& m) {
  // A rejection still answers the batch (the acceptor processed it): retire
  // it from the in-flight window — the slots' real decisions arrive via the
  // revoker/learn paths, not a retransmit.
  LogIndex answered = -1;
  for (LogIndex i : m.indexes) answered = std::max(answered, i);
  if (answered >= 0) pipe_.on_ack(m.acceptor, answered, env_.now());
  for (LogIndex i : m.indexes) {
    own_rev_floor_ = std::max(own_rev_floor_, i);
    Slot* s = slots_.find(i);
    if (s == nullptr) continue;
    if (s->st == St::kValued && s->own_pending_ack) {
      const kv::Command lost = s->cmd;
      s->own_pending_ack = false;
      submit(lost);  // re-propose on a fresh slot
    }
    // Stop retransmitting the dead ballot-0 proposal; the slot's real
    // decision (usually the revoker's no-op) arrives via RevAccept/
    // LearnVals, or the stall path in maintenance() asks for it.
    if (s->st == St::kValued && s->bal == Ballot{0, group_.self}) {
      s->bal = Ballot{};
      persist_slot(i);
    }
  }
  while (next_own_ <= m.jump_past) next_own_ += n_;
  persister_.hard_state();  // own_rev_floor_ / next_own_ moved
  pump_peer(m.acceptor);
  advance_floors();
}

void MenciusNode::on_skip_range(const SkipRange& m) {
  owners_[m.owner].last_heard = env_.now();
  const int orank = group_.rank_of(m.owner);
  LogIndex i = m.lo + (((orank - m.lo) % n_) + n_) % n_;
  for (; i < m.hi; i += n_) {
    if (i < afloor()) continue;
    decide(i, kv::noop_command());
  }
  max_seen_ = std::max(max_seen_, m.hi - 1);
  advance_floors();
}

void MenciusNode::on_status(const StatusBeat& m) {
  owners_[m.from].last_heard = env_.now();
  // A peer's slot consumption drags our unused turns forward even when we
  // never see its accepts directly (e.g. they raced past us).
  note_owner_watermark(m.from, m.decided_floor, m.rev_floor);
  // Slots below the peer's decided floor certainly exist, even if we missed
  // every accept for them (e.g. we were crashed): without this a replica
  // that slept through the tail of the log never notices it is stalled and
  // never asks to learn it.
  max_seen_ = std::max(max_seen_, m.decided_floor - 1);
  advance_floors();
}

void MenciusNode::on_learn_req(const LearnReq& m) {
  // Answer with every decided slot we know in the range, whether or not we
  // own it: a decision is final, so anyone who holds it may teach it. (An
  // owner whose slots were revoked while it was partitioned can only learn
  // the no-op decisions from non-owners — the revoker may be down.)
  LearnVals lv;
  lv.from = group_.self;
  bool aged_out = false;
  for (LogIndex i = m.lo; i < m.hi; ++i) {
    if (i < afloor()) {
      if (const kv::Command* cmd = decided_at(i)) {
        lv.slots.push_back(SlotInfo{i, cmd->is_noop(), *cmd});
      } else if (checkpoint_covers(i)) {
        // Executed but aged out of the history: the checkpoint covers it.
        aged_out = true;
      }
      continue;
    }
    const Slot* s = slot_if(i);
    if (s != nullptr && s->st == St::kDecided) {
      lv.slots.push_back(SlotInfo{i, s->cmd.is_noop(), s->cmd});
    }
  }
  if (aged_out) send_snapshot(m.from);
  if (!lv.slots.empty()) persister_.send(m.from, Message{lv});
}

void MenciusNode::on_learn_vals(const LearnVals& m) {
  for (const SlotInfo& si : m.slots) {
    decide(si.index, si.skipped ? kv::noop_command() : si.cmd);
  }
  advance_floors();
}

// ---------------------------------------------------------------------------
// Revocation (coordinated-Paxos phase 1/2 at ballots > 0, paper §A.3).
// ---------------------------------------------------------------------------

void MenciusNode::start_revocation(NodeId owner, LogIndex lo, LogIndex hi) {
  if (rev_.active || hi <= lo) return;
  ++env_.stats().revocations_started;
  rev_ = Revocation{};
  rev_.active = true;
  rev_.bal = Ballot{++rev_round_, group_.self};
  rev_.owner = owner;
  rev_.lo = lo;
  rev_.hi = hi;
  rev_.promises.add(rank_);
  PRAFT_LOG(kInfo) << "mencius " << group_.self << " revokes slots of "
                   << owner << " in [" << lo << "," << hi << ")";
  // Self-promise, seeding with our own accepted values.
  const int orank = group_.rank_of(owner);
  LogIndex i = lo + (((orank - lo) % n_) + n_) % n_;
  for (; i < hi; i += n_) {
    if (i < afloor()) continue;
    Slot& s = slot(i);
    if (rev_.bal > s.promised) {
      s.promised = rev_.bal;
      persist_slot(i);
    }
    if (s.st != St::kEmpty) {
      rev_.best[i] = RevAccepted{i, s.bal, true, s.cmd.is_noop(), s.cmd};
    }
  }
  max_promised_round_ = std::max(max_promised_round_, rev_.bal.round);
  persister_.hard_state();  // rev_round_ bumped + our own promises
  broadcast(Message{RevPrepare{group_.self, rev_.bal, owner, lo, hi}});
}

void MenciusNode::on_rev_prepare(const RevPrepare& m) {
  RevPrepareOk ok;
  ok.from = group_.self;
  ok.bal = m.bal;
  const int orank = group_.rank_of(m.owner);
  LogIndex i = m.lo + (((orank - m.lo) % n_) + n_) % n_;
  for (; i < m.hi; i += n_) {
    if (i < afloor()) {
      // Already executed: report the decided value at the top ballot so the
      // revoker cannot choose anything else. If the decision aged out of
      // the retained history we must NOT promise at all — an ok that omits
      // an executed slot's value would let the revoker choose a no-op over
      // it (P2c violation). Teach the revoker with the checkpoint instead;
      // it is stalled far behind and installs its way past this range.
      if (const kv::Command* cmd = decided_at(i)) {
        ok.accepted.push_back(RevAccepted{i, Ballot{kDecidedBal, kNoNode},
                                          true, cmd->is_noop(), *cmd});
        continue;
      }
      if (checkpoint_covers(i)) send_snapshot(m.from);
      return;
    }
    Slot& s = slot(i);
    if (m.bal <= s.promised) return;  // stale revoker: ignore whole prepare
    s.promised = m.bal;
    persist_slot(i);
    if (s.st != St::kEmpty) {
      ok.accepted.push_back(RevAccepted{i, s.bal, true, s.cmd.is_noop(), s.cmd});
    }
  }
  max_promised_round_ = std::max(max_promised_round_, m.bal.round);
  persister_.hard_state();
  if (opt_.unsafe_skip_vote_fsync) {
    // TEST-ONLY injected bug: the promise leaves before it hits disk.
    persister_.send_unsynced(m.from, Message{ok});
  } else {
    persister_.send(m.from, Message{ok});
  }
}

void MenciusNode::on_rev_prepare_ok(const RevPrepareOk& m) {
  if (!rev_.active || rev_.phase2 || !(m.bal == rev_.bal)) return;
  if (!rev_.promises.add(group_.rank_of(m.from))) return;
  for (const RevAccepted& a : m.accepted) {
    auto it = rev_.best.find(a.index);
    if (it == rev_.best.end() || a.bal > it->second.bal) rev_.best[a.index] = a;
  }
  if (!rev_.promises.reached(group_.majority())) return;
  // Phase 2: re-propose safe values, no-op (skip) everywhere else.
  rev_.phase2 = true;
  RevAccept ra;
  ra.from = group_.self;
  ra.bal = rev_.bal;
  std::vector<LogIndex> self_accepted;
  const int orank = group_.rank_of(rev_.owner);
  LogIndex i = rev_.lo + (((orank - rev_.lo) % n_) + n_) % n_;
  for (; i < rev_.hi; i += n_) {
    auto it = rev_.best.find(i);
    const kv::Command cmd =
        (it != rev_.best.end() && it->second.has && !it->second.skipped)
            ? it->second.cmd
            : kv::noop_command();
    ra.items.push_back(OwnItem{i, cmd});
    if (i >= afloor()) {
      Slot& s = slot(i);
      // Self-accept (the ack joins the tally via the fsync barrier below).
      if (s.st != St::kDecided) {
        if (s.st == St::kEmpty || !(s.cmd == cmd)) {
          if (s.st == St::kValued) count_op(s.cmd, -1);
          s.cmd = cmd;
          count_op(cmd, +1);
        }
        s.st = St::kValued;
        s.bal = rev_.bal;
        persist_slot(i);
      }
      rev_.acks[i] = {};
      self_accepted.push_back(i);
    }
  }
  broadcast(Message{ra});
  persister_.barrier([this, bal = rev_.bal, self_accepted] {
    if (!rev_.active || !(rev_.bal == bal)) return;
    LearnVals lv;
    lv.from = group_.self;
    for (LogIndex k : self_accepted) note_rev_ack(bal, k, group_.self, lv);
    if (!lv.slots.empty()) broadcast(Message{lv});
    if (revocation_done()) rev_.active = false;
    advance_floors();
  });
  advance_floors();
}

void MenciusNode::on_rev_accept(const RevAccept& m) {
  RevAcceptOk ok;
  ok.from = group_.self;
  ok.bal = m.bal;
  bool aged_out = false;
  for (const OwnItem& item : m.items) {
    if (item.index < afloor()) {
      // Executed here. Ack only when the revoker's value IS the decided one
      // (same rule as on_accept_own's re-ack path): acking an unverifiable
      // value could hand a majority to a proposal that contradicts an
      // applied decision. An aged-out slot gets the checkpoint instead.
      const kv::Command* decided = decided_at(item.index);
      if (decided != nullptr && *decided == item.cmd) {
        ok.indexes.push_back(item.index);
      } else if (decided == nullptr && checkpoint_covers(item.index)) {
        aged_out = true;
      }
      continue;
    }
    Slot& s = slot(item.index);
    if (m.bal < s.promised) continue;
    s.promised = m.bal;
    if (owner_of(item.index) == group_.self) {
      // One of our own slots is being revoked (every RevAccept ballot is
      // > 0). Record it before our decided floor passes the slot, so the
      // published rev_floor keeps peers from auto-deciding whatever stale
      // ballot-0 value of ours they still hold (see note_owner_watermark).
      own_rev_floor_ = std::max(own_rev_floor_, item.index);
    }
    if (s.st != St::kDecided) {
      if (s.st == St::kValued && !(s.cmd == item.cmd)) {
        count_op(s.cmd, -1);
        if (s.own_pending_ack) {
          const kv::Command lost = s.cmd;
          s.own_pending_ack = false;
          submit(lost);
        }
        s.cmd = item.cmd;
        count_op(item.cmd, +1);
      } else if (s.st == St::kEmpty) {
        s.cmd = item.cmd;
        count_op(item.cmd, +1);
      }
      s.st = St::kValued;
      s.bal = m.bal;
      persist_slot(item.index);
    } else {
      persist_slot(item.index);  // the raised promise must survive a crash
    }
    ok.indexes.push_back(item.index);
    max_seen_ = std::max(max_seen_, item.index);
  }
  max_promised_round_ = std::max(max_promised_round_, m.bal.round);
  persister_.hard_state();
  if (aged_out) send_snapshot(m.from);
  if (!ok.indexes.empty()) persister_.send(m.from, Message{ok});
  advance_floors();
}

void MenciusNode::note_rev_ack(const consensus::Ballot& bal, LogIndex i,
                               NodeId who, LearnVals& lv) {
  if (!rev_.active || !(rev_.bal == bal)) return;
  auto ait = rev_.acks.find(i);
  if (ait == rev_.acks.end()) return;
  if (!ait->second.add(group_.rank_of(who))) return;
  if (ait->second.count() == group_.majority()) {
    const Slot* s = slot_if(i);
    if (s != nullptr && i >= afloor()) {
      decide(i, s->cmd);
      lv.slots.push_back(SlotInfo{i, s->cmd.is_noop(),
                                  slot_if(i) != nullptr ? slot_if(i)->cmd
                                                        : kv::noop_command()});
    }
  }
}

void MenciusNode::on_rev_accept_ok(const RevAcceptOk& m) {
  if (!rev_.active || !(m.bal == rev_.bal)) return;
  LearnVals lv;
  lv.from = group_.self;
  for (LogIndex i : m.indexes) note_rev_ack(m.bal, i, m.from, lv);
  if (!lv.slots.empty()) broadcast(Message{lv});  // decide notice
  // Finished when every slot in range is decided locally.
  if (revocation_done()) rev_.active = false;
  advance_floors();
}

storage::RecoveryStats MenciusNode::recover(const storage::DurableImage& img) {
  PRAFT_CHECK_MSG(applier_.applied() == -1 && next_own_ == rank_,
                  "recover() must run once, on a fresh node, before start()");
  recovering_ = true;
  max_promised_round_ = img.hard.term;
  next_own_ = std::max(next_own_, img.hard.floor);
  rev_round_ = img.hard.aux;
  own_rev_floor_ = img.hard.tail;
  storage::RecoveryStats stats;
  stats.recovered = true;
  if (img.snap.valid()) {
    applier_.install_snapshot(img.snap);
    slots_.set_floor(img.snap.last_index);
    snap_ = img.snap;
    stats.snapshot_floor = img.snap.last_index;
    max_seen_ = std::max(max_seen_, img.snap.last_index);
    // Conservative, like on_snapshot_xfer: own slots at or below the floor
    // may have been revoked while we were down.
    own_rev_floor_ = std::max(own_rev_floor_, img.snap.last_index);
  }
  for (const storage::WalRecord& r : img.records) {
    if (r.index <= slots_.floor()) continue;
    if (!r.has_value && r.promised < 0) continue;  // nothing durable left
    Slot& sl = slots_.materialize(r.index);
    sl.promised = Ballot{r.promised, r.pnode};
    if (r.has_value) {
      sl.cmd = r.cmd;
      if (r.decided) {
        sl.st = St::kDecided;
        sl.bal = Ballot{kDecidedBal, kNoNode};
      } else {
        sl.st = St::kValued;
        sl.bal = Ballot{r.term, r.vnode};
        sl.proposed_at = 0;  // immediately eligible for retransmission
        if (sl.bal == Ballot{0, group_.self}) {
          sl.acks.add(rank_);  // our accept IS durable — it was replayed
        }
      }
      count_op(sl.cmd, +1);
    }
    max_seen_ = std::max(max_seen_, r.index);
    ++stats.replayed;
    stats.wal_tail = std::max(stats.wal_tail, r.index);
  }
  stats.wal_tail = std::max(stats.wal_tail, stats.snapshot_floor);
  while (next_own_ < afloor()) next_own_ += n_;
  if (info_floor_ < afloor()) info_floor_ = afloor();
  recovering_ = false;
  // Re-execute the contiguous decided prefix (rebuilds decided_history_ and
  // prunes executed slots, exactly like live operation).
  advance_floors();
  PRAFT_LOG(kInfo) << "mencius " << group_.self << " recovered: next_own "
                   << next_own_ << ", floor " << afloor() << " ("
                   << stats.replayed << " replayed)";
  return stats;
}

// ---------------------------------------------------------------------------
// Maintenance loop.
// ---------------------------------------------------------------------------

void MenciusNode::maintenance() {
  const Time now = env_.now();
  broadcast(Message{StatusBeat{group_.self, next_own_, own_decided_floor(),
                               own_rev_floor_}});

  // Windowed retransmit, per colleague (consensus::PeerPipeline). A peer
  // whose oldest in-flight batch outlived the loss-detection timeout gets
  // its window unwound and its stale undecided proposals re-offered from
  // the lowest lost slot; an idle channel re-offers stale proposals the
  // peer never acked (e.g. after our crash-restart, or a lost ack). Healthy
  // in-flight channels send nothing — the old code re-broadcast every stale
  // proposal to every peer each tick.
  for (NodeId peer : group_.members) {
    if (peer == group_.self) continue;
    const int peer_rank = group_.rank_of(peer);
    pump_peer(peer);  // backlog first: the window may have reopened
    LogIndex from = 0;
    if (pipe_.retransmit_due(peer, now)) {
      from = pipe_.on_loss(peer);
    } else if (pipe_.outstanding_batches(peer) != 0) {
      continue;  // in flight and within the timeout: wait for acks
    }
    AcceptOwn retrans;
    retrans.owner = group_.self;
    const LogIndex base = afloor();
    for (LogIndex i = base + ((rank_ - base) % n_ + n_) % n_;
         i < next_own_ && retrans.items.size() < kMaxRetransmitEntries;
         i += n_) {
      if (i < from) continue;
      const Slot* s = slot_if(i);
      if (s == nullptr || s->st != St::kValued ||
          !(s->bal == Ballot{0, group_.self})) {
        continue;
      }
      // proposed_at in the future is the A2 ablation's skip sentinel (a
      // skip is not a proposal — retransmission must not resurrect it);
      // fresh proposals are still covered by their in-flight tracking.
      if (s->proposed_at > now ||
          now - s->proposed_at < opt_.pipeline_retransmit_timeout) {
        continue;
      }
      if (s->acks.has(peer_rank)) continue;
      retrans.items.push_back(OwnItem{i, s->cmd});
    }
    if (retrans.items.empty()) continue;
    retrans.decided_floor = own_decided_floor();
    retrans.rev_floor = own_rev_floor_;
    const size_t bytes = wire_size(retrans);
    persister_.send(peer, Message{retrans});
    pipe_.on_send(peer, retrans.items.front().index,
                  retrans.items.back().index, bytes, now);
  }

  // Execution stalled on someone's slot?
  if (now - last_progress_ > opt_.learn_after && max_seen_ >= afloor()) {
    const NodeId blocker = owner_of(afloor());
    const LogIndex hi = std::min(max_seen_ + 1, afloor() + 256);
    if (blocker != group_.self) {
      const Message learn{LearnReq{group_.self, afloor(), hi}};
      persister_.send(blocker, learn);
      if (now - owners_[blocker].last_heard > opt_.revoke_timeout) {
        start_revocation(blocker, afloor(), max_seen_ + 1);
      }
    } else {
      // Stalled on our OWN slot: it was revoked while we were partitioned
      // and we missed the decision (we only learn no-op outcomes from
      // others). Any peer that executed past it can teach us.
      const Slot* s = slot_if(afloor());
      if (s == nullptr || s->st != St::kValued ||
          !(s->bal == Ballot{0, group_.self})) {
        broadcast(Message{LearnReq{group_.self, afloor(), hi}});
      }
    }
  }
  advance_floors();
}

// ---------------------------------------------------------------------------

void MenciusNode::on_packet(const net::Packet& p) {
  const auto* msg = net::payload_as<Message>(p);
  PRAFT_CHECK_MSG(msg != nullptr, "mencius node got foreign payload");
  std::visit(
      [this](const auto& m) {
        using M = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<M, AcceptOwn>) {
          on_accept_own(m);
        } else if constexpr (std::is_same_v<M, AcceptOwnOk>) {
          on_accept_own_ok(m);
        } else if constexpr (std::is_same_v<M, AcceptOwnRej>) {
          on_accept_own_rej(m);
        } else if constexpr (std::is_same_v<M, SkipRange>) {
          on_skip_range(m);
        } else if constexpr (std::is_same_v<M, StatusBeat>) {
          on_status(m);
        } else if constexpr (std::is_same_v<M, LearnReq>) {
          on_learn_req(m);
        } else if constexpr (std::is_same_v<M, LearnVals>) {
          on_learn_vals(m);
        } else if constexpr (std::is_same_v<M, RevPrepare>) {
          on_rev_prepare(m);
        } else if constexpr (std::is_same_v<M, RevPrepareOk>) {
          on_rev_prepare_ok(m);
        } else if constexpr (std::is_same_v<M, RevAccept>) {
          on_rev_accept(m);
        } else if constexpr (std::is_same_v<M, RevAcceptOk>) {
          on_rev_accept_ok(m);
        } else {
          on_snapshot_xfer(m);
        }
      },
      *msg);
}

}  // namespace praft::mencius
