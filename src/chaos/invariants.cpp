#include "chaos/invariants.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "harness/log_server.h"
#include "harness/replica_group.h"
#include "kv/store.h"

namespace praft::chaos {

namespace {

/// Client-op identity: (client, seq) packed for hashing. Sequence numbers
/// are per-client counters, far below 2^40 in any bounded run.
uint64_t op_key(const kv::Command& cmd) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(cmd.client)) << 40) ^
         cmd.seq;
}

}  // namespace

std::string InvariantChecker::describe(const kv::Command& cmd) {
  char buf[96];
  if (cmd.is_noop()) {
    std::snprintf(buf, sizeof(buf), "noop");
  } else {
    std::snprintf(buf, sizeof(buf), "%s(k=%llu%s%llu, c=%d, s=%llu)",
                  cmd.is_read() ? "get" : "put",
                  static_cast<unsigned long long>(cmd.key),
                  cmd.is_read() ? ", #" : ", v=",
                  static_cast<unsigned long long>(cmd.value),
                  cmd.client, static_cast<unsigned long long>(cmd.seq));
  }
  return buf;
}

void InvariantChecker::attach(harness::ReplicaGroup& group) {
  group.set_trace(this);
  group.install_apply_probe(
      [this](NodeId r, consensus::LogIndex i, const kv::Command& c) {
        on_apply(r, i, c);
      });
}

void InvariantChecker::note(std::string event) { record(std::move(event)); }

void InvariantChecker::mix(uint64_t x) {
  // splitmix64 finalizer over (state ^ input): order-sensitive, so swapped
  // observations change the fingerprint even when the multiset is identical.
  uint64_t z = fingerprint_ ^ x;
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  fingerprint_ = z ^ (z >> 31);
}

void InvariantChecker::record(std::string event) {
  // Trace annotations (fault activations, phase markers) carry timing and
  // victim choices; fold them in so even apply-invisible divergence shows.
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : event) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  mix(h);
  if (trace_.size() >= trace_capacity_) trace_.pop_front();
  trace_.push_back(std::move(event));
}

void InvariantChecker::violation(std::string what) {
  // Bound the damage report: one bad seed can violate at every index.
  if (violations_.size() < 8) violations_.push_back(what);
  record("VIOLATION: " + std::move(what));
}

void InvariantChecker::on_apply(NodeId replica, consensus::LogIndex idx,
                                const kv::Command& cmd) {
  ReplicaState& st = replicas_[replica];
  if (!st.seen) {
    st.seen = true;
    // First position is 1 for 1-based logs (Raft/Raft*/MultiPaxos) and 0
    // for Mencius' 0-based slot space.
    if (idx != 0 && idx != 1) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "replica %d first apply at index %lld (expected 0 or 1)",
                    replica, static_cast<long long>(idx));
      violation(buf);
    }
  } else if (idx != st.last_applied + 1) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "replica %d applied index %lld after %lld "
                  "(non-contiguous / duplicate apply)",
                  replica, static_cast<long long>(idx),
                  static_cast<long long>(st.last_applied));
    violation(buf);
  }
  st.last_applied = idx;
  if (idx > max_applied_) max_applied_ = idx;

  auto [it, inserted] = chosen_.try_emplace(idx, cmd);
  if (!inserted && !(it->second == cmd)) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "agreement broken at index %lld: replica %d applied %s but "
                  "%s was already applied there",
                  static_cast<long long>(idx), replica,
                  describe(cmd).c_str(), describe(it->second).c_str());
    violation(buf);
  }

  char buf[160];
  std::snprintf(buf, sizeof(buf), "apply r=%d idx=%lld %s", replica,
                static_cast<long long>(idx), describe(cmd).c_str());
  record(buf);
}

void InvariantChecker::on_watermark(NodeId replica, consensus::LogIndex commit,
                                    consensus::LogIndex applied) {
  ReplicaState& st = replicas_[replica];
  if (st.wm_seen && commit < st.last_commit_wm) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "replica %d commit watermark regressed: %lld -> %lld",
                  replica, static_cast<long long>(st.last_commit_wm),
                  static_cast<long long>(commit));
    violation(buf);
  }
  if (applied > commit) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "replica %d applied %lld past its commit watermark %lld",
                  replica, static_cast<long long>(applied),
                  static_cast<long long>(commit));
    violation(buf);
  }
  st.wm_seen = true;
  st.last_commit_wm = commit;
  mix(0x57u ^ (static_cast<uint64_t>(static_cast<uint32_t>(replica)) << 8) ^
      (static_cast<uint64_t>(commit) << 16) ^
      (static_cast<uint64_t>(applied) << 40));
}

void InvariantChecker::on_reply(const kv::Command& cmd, uint64_t value,
                                bool ok) {
  mix(0x52u ^ (op_key(cmd) << 8) ^ (value * 0x9e3779b97f4a7c15ull) ^
      (ok ? 2 : 1));
  replies_.push_back(Reply{cmd, value, ok});
}

void InvariantChecker::on_snapshot_install(NodeId replica,
                                           consensus::LogIndex idx,
                                           uint64_t store_fp) {
  ReplicaState& st = replicas_[replica];
  if (st.seen && idx <= st.last_applied) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "replica %d installed a snapshot @%lld at or below its "
                  "applied index %lld (backward jump / duplicate apply)",
                  replica, static_cast<long long>(idx),
                  static_cast<long long>(st.last_applied));
    violation(buf);
  }
  // The skipped positions were applied exactly once — by the snapshot's
  // provider; this replica resumes contiguously after the jump.
  st.seen = true;
  st.last_applied = std::max(st.last_applied, idx);
  if (idx > max_applied_) max_applied_ = idx;
  installs_.push_back(Install{replica, idx, store_fp});

  char buf[128];
  std::snprintf(buf, sizeof(buf), "snapshot install r=%d idx=%lld", replica,
                static_cast<long long>(idx));
  record(buf);
}

void InvariantChecker::on_sent_state(NodeId replica,
                                     const consensus::HardState& hs) {
  mix(0x53u ^ (static_cast<uint64_t>(static_cast<uint32_t>(replica)) << 8) ^
      (static_cast<uint64_t>(hs.term) << 16) ^
      (static_cast<uint64_t>(static_cast<uint32_t>(hs.vote)) << 32) ^
      (static_cast<uint64_t>(hs.floor + hs.aux + hs.tail) << 40));
  ReplicaState& st = replicas_[replica];
  if (!st.sent_seen) {
    st.sent = hs;
    st.sent_seen = true;
    return;
  }
  // (term, vote) is a ballot: merge lexicographically. The other fields are
  // independent monotone counters.
  if (hs.term > st.sent.term ||
      (hs.term == st.sent.term && hs.vote > st.sent.vote)) {
    st.sent.term = hs.term;
    st.sent.vote = hs.vote;
  }
  st.sent.floor = std::max(st.sent.floor, hs.floor);
  st.sent.aux = std::max(st.sent.aux, hs.aux);
  st.sent.tail = std::max(st.sent.tail, hs.tail);
}

void InvariantChecker::on_restart(NodeId replica,
                                  const consensus::HardState& recovered,
                                  const storage::RecoveryStats& stats,
                                  consensus::LogIndex applied) {
  ++restarts_;
  ReplicaState& st = replicas_[replica];
  {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "restart r=%d recovered term=%lld floor=%lld applied=%lld "
                  "(replayed %zu above snap %lld)",
                  replica, static_cast<long long>(recovered.term),
                  static_cast<long long>(recovered.floor),
                  static_cast<long long>(applied), stats.replayed,
                  static_cast<long long>(stats.snapshot_floor));
    record(buf);
  }
  if (st.sent_seen) {
    // No externally-visible hard state may be forgotten: every message this
    // replica ever sent waited (or should have waited) for the state it
    // depended on to reach disk.
    // (term, vote) is a ballot, ordered lexicographically — the same order
    // on_sent_state merges with. A same-term vote ADVANCE (MultiPaxos
    // adopting a higher same-round ballot) is legal; only a strictly
    // smaller recovered ballot (including vote lost to kNoNode) convicts.
    const bool ballot_regressed =
        recovered.term < st.sent.term ||
        (recovered.term == st.sent.term && recovered.vote < st.sent.vote);
    if (ballot_regressed || recovered.floor < st.sent.floor ||
        recovered.aux < st.sent.aux || recovered.tail < st.sent.tail) {
      char buf[256];
      std::snprintf(
          buf, sizeof(buf),
          "replica %d recovered hard state (term=%lld vote=%d floor=%lld "
          "aux=%lld tail=%lld) regresses what its sent messages depended on "
          "(term=%lld vote=%d floor=%lld aux=%lld tail=%lld) — missing "
          "fsync before send",
          replica, static_cast<long long>(recovered.term), recovered.vote,
          static_cast<long long>(recovered.floor),
          static_cast<long long>(recovered.aux),
          static_cast<long long>(recovered.tail),
          static_cast<long long>(st.sent.term), st.sent.vote,
          static_cast<long long>(st.sent.floor),
          static_cast<long long>(st.sent.aux),
          static_cast<long long>(st.sent.tail));
      violation(buf);
    }
  }
  // Snapshots must bound replay: recovery work is at most the WAL suffix.
  const auto bound = static_cast<size_t>(
      std::max<consensus::LogIndex>(0, stats.wal_tail - stats.snapshot_floor));
  if (stats.recovered && stats.replayed > bound) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "replica %d replayed %zu entries on recovery, over the "
                  "(wal tail %lld - snapshot floor %lld) bound",
                  replica, stats.replayed,
                  static_cast<long long>(stats.wal_tail),
                  static_cast<long long>(stats.snapshot_floor));
    violation(buf);
  }
  // The node restarts with a fresh incarnation: its applied prefix regressed
  // to the recovered position (re-applies get re-checked against the agreed
  // log through the apply probe), and its watermark baseline resets.
  st.seen = true;
  st.last_applied = applied;
  st.wm_seen = false;
  st.last_commit_wm = 0;
  // Hard state can only have moved forward through recovery's own replay —
  // keep the sent-state maximum as-is; the recovered state already passed
  // the regression check above.
}

void InvariantChecker::sample_memory(const harness::ReplicaGroup& group) {
  if (memory_cap_ == 0) return;
  for (int i = 0; i < group.size(); ++i) {
    if (!group.up(i)) continue;  // crashed, awaiting restart
    const size_t compactable =
        group.server(i).node_iface().compactable_entries();
    if (compactable > memory_cap_) {
      char buf[192];
      std::snprintf(buf, sizeof(buf),
                    "replica %d holds %zu applied-but-uncompacted entries, "
                    "over the compaction cap %zu (unbounded memory)",
                    i, compactable, memory_cap_);
      violation(buf);
    }
  }
}

void InvariantChecker::finalize(const harness::ReplicaGroup& group) {
  sample_memory(group);  // one last bounded-memory check on the quiesced world

  // ---- Replay the agreed log and derive the linearized KV history. -------
  // Reads are logged by every baseline in the repo, so the agreed log IS the
  // linearization order: the correct answer for a read is the latest write
  // to its key at a smaller index.
  std::unordered_map<uint64_t, uint64_t> model;          // key -> value token
  std::unordered_set<uint64_t> writes_in_log;            // op_key of puts
  std::unordered_map<uint64_t, std::vector<uint64_t>> expected_reads;
  // Snapshot soundness: the store state a replica installed must equal
  // replaying the agreed log prefix the snapshot claims to cover.
  std::vector<Install> installs = installs_;
  std::sort(installs.begin(), installs.end(),
            [](const Install& a, const Install& b) { return a.idx < b.idx; });
  size_t next_install = 0;
  kv::KvStore replay;
  consensus::LogIndex expect = -2;
  for (const auto& [idx, cmd] : chosen_) {
    if (expect == -2) {
      if (idx != 0 && idx != 1) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "agreed log starts at index %lld (expected 0 or 1)",
                      static_cast<long long>(idx));
        violation(buf);
      }
    } else if (idx != expect) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "hole in agreed log before index %lld",
                    static_cast<long long>(idx));
      violation(buf);
    }
    expect = idx + 1;
    if (cmd.is_write()) {
      model[cmd.key] = cmd.value;
      writes_in_log.insert(op_key(cmd));
    } else if (cmd.is_read()) {
      const auto it = model.find(cmd.key);
      expected_reads[op_key(cmd)].push_back(it == model.end() ? 0
                                                              : it->second);
    }
    replay.apply(cmd);
    for (; next_install < installs.size() && installs[next_install].idx == idx;
         ++next_install) {
      const Install& ins = installs[next_install];
      if (ins.store_fp != replay.fingerprint()) {
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "replica %d's installed snapshot @%lld does not match "
                      "a replay of the agreed log prefix",
                      ins.replica, static_cast<long long>(ins.idx));
        violation(buf);
      }
    }
  }
  for (; next_install < installs.size(); ++next_install) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "replica %d installed a snapshot @%lld outside the agreed "
                  "log (no replica ever applied that prefix)",
                  installs[next_install].replica,
                  static_cast<long long>(installs[next_install].idx));
    violation(buf);
  }

  // ---- Client-visible history must be explained by the agreed log. -------
  for (const Reply& r : replies_) {
    if (!r.ok) continue;
    if (r.cmd.is_write()) {
      if (writes_in_log.count(op_key(r.cmd)) == 0) {
        violation("acknowledged write " + describe(r.cmd) +
                  " is missing from the agreed log (durability loss)");
      }
    } else if (r.cmd.is_read()) {
      const auto it = expected_reads.find(op_key(r.cmd));
      bool matched = false;
      if (it != expected_reads.end()) {
        for (uint64_t v : it->second) matched |= (v == r.value);
      }
      if (!matched) {
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "non-linearizable read %s returned %llu, not the "
                      "latest agreed write to the key",
                      describe(r.cmd).c_str(),
                      static_cast<unsigned long long>(r.value));
        violation(buf);
      }
    }
  }

  // ---- Convergence: after the fault-free tail, everyone caught up. -------
  uint64_t fp0 = 0;
  bool have_fp0 = false;
  for (int i = 0; i < group.size(); ++i) {
    if (!group.up(i)) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "replica %d still down after quiesce (restart never ran)",
                    i);
      violation(buf);
      continue;
    }
    const harness::LogServer& server = group.server(i);
    const auto st = replicas_.find(server.id());
    const consensus::LogIndex applied =
        st == replicas_.end() ? 0 : st->second.last_applied;
    if (applied < max_applied_) {
      char buf[192];
      std::snprintf(buf, sizeof(buf),
                    "replica %d stalled: applied %lld of %lld after quiesce "
                    "(its committed prefix: %lld)",
                    i, static_cast<long long>(applied),
                    static_cast<long long>(max_applied_),
                    static_cast<long long>(server.commit_index()));
      violation(buf);
    }
    const uint64_t fp = server.store().fingerprint();
    if (!have_fp0) {
      fp0 = fp;
      have_fp0 = true;
    } else if (fp != fp0) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "replica %d store fingerprint diverges from replica 0", i);
      violation(buf);
    }
  }
}

}  // namespace praft::chaos
