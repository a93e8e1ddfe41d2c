#include "net/wire.h"

#include <cstdlib>
#include <cstring>

namespace praft::net {

void CodecRegistry::add(const std::type_info& type, Codec codec) {
  for (const Entry& e : codecs_) {
    PRAFT_CHECK_MSG(*e.type != type, "duplicate codec for payload type");
    PRAFT_CHECK_MSG(e.codec.family != codec.family,
                    "duplicate codec for family byte");
  }
  codecs_.push_back(Entry{&type, std::move(codec)});
}

CodecRegistry& codec_registry() {
  static CodecRegistry* reg = [] {
    auto* r = new CodecRegistry();
    install_builtin_codecs(*r);
    return r;
  }();
  return *reg;
}

namespace {

bool env_flag() {
  const char* v = std::getenv("PRAFT_WIRE_VERIFY");
  return v != nullptr &&
         (std::strcmp(v, "1") == 0 || std::strcmp(v, "ON") == 0 ||
          std::strcmp(v, "on") == 0 || std::strcmp(v, "true") == 0 ||
          std::strcmp(v, "yes") == 0);
}

bool& verify_flag() {
  static bool on = env_flag();
  return on;
}

}  // namespace

bool wire_verify_enabled() { return verify_flag(); }
void set_wire_verify(bool on) { verify_flag() = on; }

}  // namespace praft::net
