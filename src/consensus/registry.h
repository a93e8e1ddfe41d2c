#pragma once

#include <memory>
#include <string>
#include <vector>

#include "consensus/env.h"
#include "consensus/group.h"
#include "consensus/node_iface.h"
#include "consensus/timing.h"

namespace praft::consensus {

/// The protocol table: the runtime seam that lets harness servers, clusters
/// and bench binaries select a protocol by name. Builds protocol `name`
/// ("mencius", "multipaxos", "raft" or "raftstar") for `group`, talking
/// through `env` (and persisting through env.store(), if any), tuned by the
/// shared timing knobs. Protocol-specific options beyond TimingOptions keep
/// their defaults; callers needing them construct the concrete node type.
/// PRAFT_CHECK-fails on an unknown name, listing the known ones.
std::unique_ptr<NodeIface> make_node(const std::string& name, Group group,
                                     Env& env,
                                     const TimingOptions& timing = {});

/// The names make_node builds, in alphabetical order.
std::vector<std::string> protocol_names();

}  // namespace praft::consensus
