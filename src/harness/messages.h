#pragma once

#include <variant>

#include "consensus/types.h"
#include "kv/command.h"
#include "net/field_codec.h"

namespace praft::harness {

/// Client -> replica: execute one command.
struct ClientRequest {
  kv::Command cmd;

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.cmd); }

  friend bool operator==(const ClientRequest&, const ClientRequest&) = default;
};

/// Replica -> client: result of a committed (or locally served) command.
struct ClientReply {
  uint64_t seq = 0;
  uint64_t value = 0;
  bool ok = true;
  NodeId server = kNoNode;

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.seq, m.value, m.ok, m.server); }

  friend bool operator==(const ClientReply&, const ClientReply&) = default;
};

/// Follower -> leader: etcd-style forwarding of client commands.
struct Forward {
  kv::Command cmd;
  NodeId origin = kNoNode;  // the forwarding server

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.cmd, m.origin); }

  friend bool operator==(const Forward&, const Forward&) = default;
};

/// Leader -> forwarding server: result to relay to the client.
struct ForwardReply {
  kv::Command cmd;  // echoed for reply routing (client/seq) and read values
  uint64_t value = 0;
  bool ok = true;

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.cmd, m.value, m.ok); }

  friend bool operator==(const ForwardReply&, const ForwardReply&) = default;
};

using Message = std::variant<ClientRequest, ClientReply, Forward, ForwardReply>;

// Frame sizes derive from the fields lists above (net/field_codec.h).
using net::wire_size;

}  // namespace praft::harness
