#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "consensus/env.h"
#include "consensus/group.h"
#include "consensus/node_iface.h"
#include "consensus/timing.h"

namespace praft::consensus {

/// Builds a protocol node for `group` talking through `env` (and persisting
/// through env.store(), if any), tuned by the shared timing knobs.
/// Protocol-specific options beyond TimingOptions keep their defaults;
/// callers needing them construct the concrete node type.
using NodeFactory = std::function<std::unique_ptr<NodeIface>(
    Group group, Env& env, const TimingOptions& timing)>;

/// String-keyed protocol registry: the runtime seam that lets harness
/// servers, clusters and bench binaries select a protocol by name. Names are
/// lower-case ("raft", "raftstar", "multipaxos", "mencius"); the four
/// in-repo protocols are registered on first use, and later subsystems
/// (sharding, new ports) can add their own.
class ProtocolRegistry {
 public:
  static ProtocolRegistry& instance();

  /// Registers (or replaces) a factory under `name`.
  void add(const std::string& name, NodeFactory factory);

  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;

  /// Instantiates `name`; PRAFT_CHECK-fails on unknown names.
  [[nodiscard]] std::unique_ptr<NodeIface> make(
      const std::string& name, Group group, Env& env,
      const TimingOptions& timing = {}) const;

 private:
  ProtocolRegistry();
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

/// Convenience wrappers over ProtocolRegistry::instance().
std::unique_ptr<NodeIface> make_node(const std::string& name, Group group,
                                     Env& env,
                                     const TimingOptions& timing = {});
std::vector<std::string> protocol_names();

namespace detail {
/// Defined in builtin_protocols.cpp; referenced by the registry constructor
/// so the linker always pulls the built-in registrations out of the static
/// library.
void register_builtin_protocols(ProtocolRegistry& reg);
}  // namespace detail

}  // namespace praft::consensus
