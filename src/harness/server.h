#pragma once

#include "harness/log_server.h"

namespace praft::harness {

/// The name praft_bench still uses for LogServer, the one replica adapter.
using ReplicaServer = LogServer;

}  // namespace praft::harness
