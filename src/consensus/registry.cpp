#include "consensus/registry.h"

#include <map>

#include "common/check.h"

namespace praft::consensus {

struct ProtocolRegistry::Impl {
  std::map<std::string, NodeFactory> factories;
};

ProtocolRegistry::ProtocolRegistry() : impl_(std::make_shared<Impl>()) {
  detail::register_builtin_protocols(*this);
}

ProtocolRegistry& ProtocolRegistry::instance() {
  static ProtocolRegistry reg;
  return reg;
}

void ProtocolRegistry::add(const std::string& name, NodeFactory factory) {
  PRAFT_CHECK_MSG(!name.empty(), "protocol name must be non-empty");
  PRAFT_CHECK_MSG(factory != nullptr, "protocol factory must be callable");
  impl_->factories[name] = std::move(factory);
}

bool ProtocolRegistry::contains(const std::string& name) const {
  return impl_->factories.count(name) > 0;
}

std::vector<std::string> ProtocolRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(impl_->factories.size());
  for (const auto& [name, factory] : impl_->factories) out.push_back(name);
  return out;
}

std::unique_ptr<NodeIface> ProtocolRegistry::make(
    const std::string& name, Group group, Env& env,
    const TimingOptions& timing) const {
  auto it = impl_->factories.find(name);
  if (it == impl_->factories.end()) {
    // List what IS registered: "unknown protocol" alone sends the caller
    // grepping for the registration site instead of fixing the typo.
    std::string joined;
    for (const std::string& n : names()) {
      if (!joined.empty()) joined += ", ";
      joined += n;
    }
    PRAFT_CHECK_MSG(false, "unknown protocol \"" + name +
                               "\"; registered protocols: " + joined);
  }
  return it->second(std::move(group), env, timing);
}

std::unique_ptr<NodeIface> make_node(const std::string& name, Group group,
                                     Env& env, const TimingOptions& timing) {
  return ProtocolRegistry::instance().make(name, std::move(group), env,
                                           timing);
}

std::vector<std::string> protocol_names() {
  return ProtocolRegistry::instance().names();
}

}  // namespace praft::consensus
