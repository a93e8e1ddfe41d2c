#pragma once

#include "consensus/timing.h"
#include "raft/core.h"
#include "raft/messages.h"

namespace praft::raft {

/// Tunables. All of Raft's timing knobs are the shared consensus ones; the
/// struct exists so call sites keep a protocol-scoped name.
struct Options : consensus::TimingOptions {};

/// Raft's types, as raft::Core takes them.
struct Family {
  using Options = raft::Options;
  using Entry = raft::Entry;
  using Message = raft::Message;
  using RequestVote = raft::RequestVote;
  using VoteReply = raft::VoteReply;
  using AppendEntries = raft::AppendEntries;
  using AppendReply = raft::AppendReply;
  using InstallSnapshot = raft::InstallSnapshot;
  using InstallSnapshotReply = raft::InstallSnapshotReply;
  static constexpr const char* kName = "raft";
};

extern template class Core<Family>;

/// Standard Raft (Ongaro & Ousterhout 2014) as the paper's baseline:
/// randomized elections, AppendEntries with conflict-suffix erasure, in-order
/// commit, and the §5.4.2 restriction (only current-term entries commit by
/// counting). This is the protocol Raft* deviates from (see src/raftstar).
///
/// raft::Core runs the engine both share; this class holds only Raft's
/// side of the paper's deltas.
class RaftNode final : public Core<Family> {
 public:
  using Core::Core;

 private:
  /// Takes office at last+1 and appends the term-start no-op.
  void become_leader() override;
  /// Appends, erasing any conflicting suffix.
  bool accept_append(const AppendEntries& m, LogIndex prev,
                     size_t skip) override;
  /// Backs nextIndex off to the hint and resends.
  void on_append_reject(const AppendReply& m) override;
  /// Commits the quorum index only at a current-term entry (§5.4.2).
  void advance_commit() override;
};

}  // namespace praft::raft
