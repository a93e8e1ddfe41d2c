#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace praft {

/// Thrown when an internal invariant is violated. Tests assert on these; the
/// simulator never swallows them.
class CheckFailure : public std::logic_error {
 public:
  explicit CheckFailure(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
/// Cold and never inlined, so a check leaves only a branch and a call on
/// its path; PRAFT_CHECK passes an empty view, not a std::string built at
/// every call site.
[[noreturn, gnu::cold, gnu::noinline]] inline void check_failed(
    const char* expr, const char* file, int line, std::string_view msg) {
  std::ostringstream os;
  os << "PRAFT_CHECK failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckFailure(os.str());
}
}  // namespace detail

}  // namespace praft

// Always-on invariant check (cheap conditions only on hot paths).
#define PRAFT_CHECK(cond)                                              \
  do {                                                                 \
    if (!(cond))                                                       \
      ::praft::detail::check_failed(#cond, __FILE__, __LINE__, {});    \
  } while (0)

#define PRAFT_CHECK_MSG(cond, msg)                                     \
  do {                                                                 \
    if (!(cond))                                                       \
      ::praft::detail::check_failed(#cond, __FILE__, __LINE__, (msg)); \
  } while (0)
