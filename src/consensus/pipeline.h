#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <unordered_map>

#include "common/types.h"
#include "consensus/stats.h"
#include "consensus/timing.h"
#include "consensus/types.h"

namespace praft::consensus {

/// Per-peer replication flow control, shared by all four protocols — the
/// same portability argument as the Batcher: leader-driven replication is
/// structurally identical across the Paxos and Raft families (§2/§3 of the
/// paper), so "keep the bandwidth-delay product full" is written once here
/// and each protocol only maps its own message/ack vocabulary onto it.
///
/// The model: a leader sends a *batch* covering positions [lo, hi] and
/// `bytes` of wire payload to a peer; the batch stays outstanding until an
/// acknowledgement covering `hi` arrives (acks are cumulative — a Raft
/// AppendReply's match index, a Paxos AcceptOkBatch's end instance, a
/// Mencius AcceptOwnOk's highest slot). A new batch may be sent while older
/// ones are still in flight, as long as the peer's window has room:
///
///   - at most `pipeline_max_batches` batches outstanding, and
///   - at most `window` un-acked bytes outstanding, where `window` adapts
///     by AIMD between pipeline_inflight_bytes/16 and pipeline_inflight_bytes
///     (additive increase per ack, halve on reject/loss).
///
/// An empty window always admits one batch regardless of its size, so a
/// single batch larger than the byte window cannot deadlock the channel.
/// With `pipeline` off the window admits exactly one outstanding batch
/// (stop-and-wait) — the pre-pipeline behavior, kept as the bench baseline.
///
/// Loss detection: when the oldest outstanding batch has waited longer than
/// the retransmit timeout, `retransmit_due` reports the peer; the protocol
/// calls `on_loss`, which clears the peer's outstanding set, halves the
/// window, and returns the lowest un-acked position — the retransmit probe
/// restarts from there. This replaces the blanket resend-everything-per-tick
/// loss recovery the protocols used before.
///
/// The timeout is RTT-adaptive (Jacobson/Karels, RFC 6298 shape): acks that
/// retire batches feed a per-peer smoothed RTT + variance, and the effective
/// timeout is max(pipeline_retransmit_timeout, srtt + 4 * rttvar). The
/// configured fixed value is a *floor*, never shortened — healthy links keep
/// today's probe behavior exactly, while a peer whose acks legitimately slow
/// down (saturated CPU, deep queues) stops tripping spurious probes and the
/// window-halvings they cause. Karn's ambiguity (an ack arriving after a
/// retransmission could match either copy) is tolerable here precisely
/// because samples can only ever *raise* the timeout above the floor: on_loss
/// clears the outstanding set, so post-retransmit acks for cleared batches
/// retire nothing and are never sampled.
///
/// Pure bookkeeping: no timers, no I/O, no protocol state. Protocols call
/// the hooks from their existing send/reply/tick paths. Every rollback (a
/// reject or a loss probe) counts into `stats.pipeline_rollbacks`, the
/// owning node's Env block.
class PeerPipeline {
 public:
  PeerPipeline(const TimingOptions& opt, Stats& stats)
      : stats_(stats),
        pipeline_(opt.pipeline),
        max_batches_(opt.pipeline_max_batches),
        window_max_(opt.pipeline_inflight_bytes),
        window_min_(std::max<size_t>(1, opt.pipeline_inflight_bytes / 16)),
        retransmit_timeout_(opt.pipeline_retransmit_timeout) {}

  /// True when `peer` has room for one more batch. Always true with nothing
  /// outstanding (progress guarantee).
  [[nodiscard]] bool can_send(NodeId peer) const {
    auto it = peers_.find(peer);
    if (it == peers_.end() || it->second.sent.empty()) return true;
    if (!pipeline_) return false;  // stop-and-wait baseline
    const Peer& p = it->second;
    return p.sent.size() < max_batches_ && p.inflight_bytes < p.window;
  }

  /// Records a batch covering positions [lo, hi] (`bytes` of wire payload)
  /// as outstanding toward `peer`. `hi` is the ack key: an ack covering a
  /// position >= hi retires the batch.
  void on_send(NodeId peer, LogIndex lo, LogIndex hi, size_t bytes, Time now) {
    Peer& p = touch(peer);
    p.sent.push_back(Sent{lo, hi, bytes, now});
    p.inflight_bytes += bytes;
  }

  /// Cumulative ack: retires every outstanding batch whose end position is
  /// <= `upto` and grows the window additively. Duplicate and stale acks
  /// (already-retired coverage) are no-ops. When `now` is supplied (>= 0) the
  /// youngest retired batch contributes an RTT sample to the peer's smoothed
  /// estimate — the youngest, not the oldest, because a cumulative ack may
  /// retire a whole run of batches at once and only the last one's
  /// send-to-ack span measures the current round-trip rather than queueing
  /// behind earlier batches.
  void on_ack(NodeId peer, LogIndex upto, Time now = -1) {
    auto it = peers_.find(peer);
    if (it == peers_.end()) return;
    Peer& p = it->second;
    bool retired = false;
    Time sent_at = -1;
    while (!p.sent.empty() && p.sent.front().hi <= upto) {
      p.inflight_bytes -= std::min(p.inflight_bytes, p.sent.front().bytes);
      sent_at = p.sent.front().at;
      p.sent.pop_front();
      retired = true;
    }
    if (p.sent.empty()) p.inflight_bytes = 0;
    if (retired) {
      p.window = std::min(window_max_, p.window + window_max_ / 8);
      if (now >= 0 && now >= sent_at) sample_rtt(p, now - sent_at);
    }
  }

  /// Rejection (e.g. a Raft conflict reply): the peer's log diverged, so
  /// everything we pipelined after the rejected batch is garbage too. Clears
  /// the outstanding set and halves the window; the caller rolls its send
  /// cursor back (Raft already does, via next_index_).
  void on_reject(NodeId peer) {
    auto it = peers_.find(peer);
    if (it == peers_.end()) return;
    clear_and_halve(it->second);
    ++stats_.pipeline_rollbacks;
  }

  /// True when `peer`'s oldest outstanding batch has waited past the
  /// (RTT-adaptive) retransmit timeout — the loss-detection probe trigger.
  [[nodiscard]] bool retransmit_due(NodeId peer, Time now) const {
    auto it = peers_.find(peer);
    if (it == peers_.end() || it->second.sent.empty()) return false;
    return now - it->second.sent.front().at >= rto_of(it->second);
  }

  /// Loss handling: clears the outstanding set, halves the window, and
  /// returns the lowest position that was in flight — the caller restarts
  /// replication from there (retransmit probe).
  LogIndex on_loss(NodeId peer) {
    auto it = peers_.find(peer);
    if (it == peers_.end() || it->second.sent.empty()) return -1;
    LogIndex lo = it->second.sent.front().lo;
    clear_and_halve(it->second);
    ++stats_.pipeline_rollbacks;
    return lo;
  }

  /// Forgets one peer / every peer (leadership change: stale in-flight
  /// batches from the old reign must not gate or satisfy the new one).
  void reset(NodeId peer) { peers_.erase(peer); }
  void reset_all() { peers_.clear(); }

  [[nodiscard]] size_t outstanding_batches(NodeId peer) const {
    auto it = peers_.find(peer);
    return it == peers_.end() ? 0 : it->second.sent.size();
  }
  [[nodiscard]] size_t inflight_bytes(NodeId peer) const {
    auto it = peers_.find(peer);
    return it == peers_.end() ? 0 : it->second.inflight_bytes;
  }
  [[nodiscard]] size_t window(NodeId peer) const {
    auto it = peers_.find(peer);
    return it == peers_.end() ? window_max_ : it->second.window;
  }
  /// Effective retransmit timeout for `peer`: the configured floor until the
  /// first RTT sample, max(floor, srtt + 4 * rttvar) after.
  [[nodiscard]] Duration rto(NodeId peer) const {
    auto it = peers_.find(peer);
    return it == peers_.end() ? retransmit_timeout_ : rto_of(it->second);
  }
  /// Smoothed RTT estimate for `peer` (0 before the first sample).
  [[nodiscard]] Duration srtt(NodeId peer) const {
    auto it = peers_.find(peer);
    return it == peers_.end() || !it->second.rtt_seen ? 0 : it->second.srtt;
  }

 private:
  struct Sent {
    LogIndex lo;   // first position covered
    LogIndex hi;   // last position covered (the ack key)
    size_t bytes;  // wire payload billed when it was sent
    Time at;       // send time (loss detection)
  };
  struct Peer {
    std::deque<Sent> sent;  // oldest first; acks retire from the front
    size_t inflight_bytes = 0;
    size_t window = 0;  // initialized to window_max_ by touch()
    // Jacobson/Karels RTT estimator state (microseconds, like all Time).
    Duration srtt = 0;
    Duration rttvar = 0;
    bool rtt_seen = false;
  };

  /// Peer state, created open (window starts at the max; AIMD shrinks it on
  /// trouble rather than slow-starting every reign from the floor).
  Peer& touch(NodeId peer) {
    auto [it, inserted] = peers_.try_emplace(peer);
    if (inserted) it->second.window = window_max_;
    return it->second;
  }

  void clear_and_halve(Peer& p) {
    p.sent.clear();
    p.inflight_bytes = 0;
    p.window = std::max(window_min_, p.window / 2);
  }

  /// RFC 6298 update: first sample seeds srtt = R, rttvar = R/2; after that
  /// rttvar = 3/4 rttvar + 1/4 |srtt - R| and srtt = 7/8 srtt + 1/8 R.
  /// The RTT estimate converges even while the timeout stays pinned at the
  /// configured floor — only samples larger than the floor move the
  /// effective timeout.
  static void sample_rtt(Peer& p, Duration r) {
    if (!p.rtt_seen) {
      p.srtt = r;
      p.rttvar = r / 2;
      p.rtt_seen = true;
      return;
    }
    const Duration err = p.srtt > r ? p.srtt - r : r - p.srtt;
    p.rttvar = (3 * p.rttvar + err) / 4;
    p.srtt = (7 * p.srtt + r) / 8;
  }

  [[nodiscard]] Duration rto_of(const Peer& p) const {
    if (!p.rtt_seen) return retransmit_timeout_;
    return std::max(retransmit_timeout_, p.srtt + 4 * p.rttvar);
  }

  Stats& stats_;
  bool pipeline_;
  size_t max_batches_;
  size_t window_max_;
  size_t window_min_;
  Duration retransmit_timeout_;
  std::unordered_map<NodeId, Peer> peers_;
};

}  // namespace praft::consensus
