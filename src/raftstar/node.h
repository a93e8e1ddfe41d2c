#pragma once

#include <functional>
#include <vector>

#include "consensus/snapshot.h"
#include "consensus/timing.h"
#include "raft/core.h"
#include "raftstar/messages.h"

namespace praft::raftstar {

/// Raft* shares every timing knob with the rest of the repo (see
/// consensus::TimingOptions); the struct exists for protocol-scoped naming.
struct Options : consensus::TimingOptions {};

/// Raft*'s types, as raft::Core takes them.
struct Family {
  using Options = raftstar::Options;
  using Entry = raftstar::Entry;
  using Message = raftstar::Message;
  using RequestVote = raftstar::RequestVote;
  using VoteReply = raftstar::VoteReply;
  using AppendEntries = raftstar::AppendEntries;
  using AppendReply = raftstar::AppendReply;
  using InstallSnapshot = raftstar::InstallSnapshot;
  using InstallSnapshotReply = raftstar::InstallSnapshotReply;
  static constexpr const char* kName = "raft*";
};

using Role = raft::Role;

}  // namespace praft::raftstar

extern template class praft::raft::Core<praft::raftstar::Family>;

namespace praft::raftstar {

/// Raft* — the paper's Raft variant that refines MultiPaxos (§3, Fig. 2):
///  1. Vote replies return the voter's extra log entries; the new leader
///     extends its log with safe values (highest log ballot per index)
///     instead of followers erasing their longer logs.
///  2. A follower REJECTS an append whose coverage (prev + |entries|) is
///     shorter than its own log — Raft* never erases accepted entries, it
///     only overwrites them with a full replacement suffix.
///  3. Every accepted append overwrites the ballot of all covered entries
///     with the append's term (tracked as the uniform `log_bal_` watermark),
///     which is why Raft* needs no §5.4.2 commit restriction.
///
/// raft::Core runs the engine Raft* shares with Raft; only the deltas above
/// live here.
class RaftStarNode final : public raft::Core<Family> {
 public:
  using Core::Core;

  /// Raft*'s hard state: currentTerm + votedFor, plus the uniform log
  /// ballot (aux) — a recovered log must remember the ballot its entries
  /// were last re-accepted at or safe-value selection breaks.
  [[nodiscard]] consensus::HardState hard_state() const override {
    return consensus::HardState{term_, voted_for_, -1, log_bal_, -1};
  }
  storage::RecoveryStats recover(const storage::DurableImage& img) override;

  /// Hook invoked when the leader learns a new commit index (used by the
  /// ported optimizations: Raft*-PQL gates commit on lease holders here).
  using CommitGate = std::function<bool(LogIndex)>;
  void set_commit_gate(CommitGate gate) { commit_gate_ = std::move(gate); }

  /// Re-evaluates the commit gate (PQL calls this when holder acks arrive).
  void retry_commit() { advance_commit(); }

  [[nodiscard]] Term log_bal() const { return log_bal_; }

  /// Observer invoked for every successful AppendReply the leader receives
  /// (non-mutating hook per §4.2 — it may read but never mutates Raft* state;
  /// Raft*-PQL uses it to collect lease-holder acknowledgements).
  using AppendReplyObserver = std::function<void(
      NodeId follower, LogIndex match, const std::vector<NodeId>& piggyback)>;
  void set_append_reply_observer(AppendReplyObserver obs) {
    append_reply_observer_ = std::move(obs);
  }

  /// Piggyback hook: ids attached to our AppendReply messages (Raft*-PQL
  /// attaches the holders of leases granted by this replica; Fig. 13).
  using ReplyDecorator = std::function<std::vector<NodeId>()>;
  void set_reply_decorator(ReplyDecorator dec) {
    reply_decorator_ = std::move(dec);
  }

  /// Observer invoked whenever an entry is stored into the LOCAL log
  /// (leader submit, safe-value adoption, follower suffix replacement).
  /// Raft*-PQL tracks per-key last-write indexes with it; like all
  /// optimization hooks it must not mutate Raft* state (§4.2).
  using EntryObserver = std::function<void(LogIndex, const Entry&)>;
  void set_entry_observer(EntryObserver obs) {
    entry_observer_ = std::move(obs);
  }

 private:
  /// Adds the log ballot and the extras (or checkpoint) a granted vote
  /// ships (difference #1).
  VoteReply vote_reply(const RequestVote& m, bool granted) override;
  void on_candidacy() override;
  void on_vote(const VoteReply& m) override;
  /// Installs a voter checkpoint, adopts safe values and re-ballots.
  void become_leader() override;
  /// Refuses short coverage, then replaces the suffix and re-ballots
  /// (differences #2 and #3).
  bool accept_append(const AppendEntries& m, LogIndex prev,
                     size_t skip) override;
  AppendReply append_reply(bool ok, LogIndex match, LogIndex hint) override;
  void on_append_ok(const AppendReply& m) override;
  /// Extends with no-ops past a longer follower and resends the suffix.
  void on_append_reject(const AppendReply& m) override;
  /// Commits by counting, behind the PQL gate; no §5.4.2 term check.
  void advance_commit() override;
  void store_entry(Entry e) override;  // append + observer

  Term log_bal_ = 0;  // uniform per-entry ballot (see Entry doc)

  // Candidate state: the extra entries collected per voter.
  struct ExtraLog {
    Term log_bal;
    LogIndex from;
    std::vector<Entry> entries;
  };
  std::vector<ExtraLog> extras_;
  LogIndex election_last_index_ = 0;  // our last_index when we solicited votes
  // Newest checkpoint shipped by a voter (see VoteReply::has_snap):
  // installed in BecomeLeader before safe-value selection.
  consensus::Snapshot election_snap_;

  CommitGate commit_gate_;
  AppendReplyObserver append_reply_observer_;
  ReplyDecorator reply_decorator_;
  EntryObserver entry_observer_;
};

}  // namespace praft::raftstar
