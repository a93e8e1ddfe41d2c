// praft_lint — the repo's contract linter. Tokenizer-based (no libclang, no
// dependencies beyond the standard library): walks src/ and tools/, builds an
// include-closure model, and enforces the determinism (D1, D2), wire
// completeness (W1), check-discipline (C1), and durability-seam (P1) rules
// documented in lint/rules.h.
//
// Usage:
//   praft_lint [--root DIR] [--rules R1,R2,...] [--list-rules]
//
//   --root DIR     repository root to scan (default: .). The tool scans
//                  DIR/src and DIR/tools and reports DIR-relative paths.
//   --rules LIST   comma-separated subset of rules to run (default: all).
//
// Exit status: 0 clean, 1 findings, 2 usage/IO error.
//
// Suppress a single finding with a trailing or preceding-line comment:
//   // praft-lint: allow(D1 emission order proven seed-stable by fp test)

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/model.h"
#include "lint/rules.h"

namespace fs = std::filesystem;

namespace {

const char* kRuleDocs[][2] = {
    {"D1", "iteration over unordered containers (order-dependent behavior)"},
    {"D2", "wall clocks / libc rand / std::random_device outside common/rng.h"},
    {"W1", "std::variant message alternative missing fields list/operator=="},
    {"C1", "assert()/abort() instead of PRAFT_CHECK (common/check.h)"},
    {"P1", "protocol send bypassing the Persister durability seam"},
};

bool read_file(const fs::path& p, std::string* out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

/// DIR-relative path with forward slashes, the form every rule keys off.
std::string rel_path(const fs::path& root, const fs::path& p) {
  return fs::relative(p, root).generic_string();
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::set<std::string> only;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
    } else if (arg == "--rules" && i + 1 < argc) {
      std::stringstream ss(argv[++i]);
      for (std::string r; std::getline(ss, r, ',');) only.insert(r);
    } else if (arg.rfind("--rules=", 0) == 0) {
      std::stringstream ss(arg.substr(8));
      for (std::string r; std::getline(ss, r, ',');) only.insert(r);
    } else if (arg == "--list-rules") {
      for (const auto& d : kRuleDocs) std::printf("%s  %s\n", d[0], d[1]);
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: praft_lint [--root DIR] [--rules R1,R2,...] "
          "[--list-rules]\n");
      return 0;
    } else {
      std::fprintf(stderr, "praft_lint: unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }

  const fs::path root_path(root);
  std::vector<praft::lint::SourceFile> sources;
  for (const char* sub : {"src", "tools"}) {
    const fs::path base = root_path / sub;
    if (!fs::exists(base)) continue;
    for (const auto& e : fs::recursive_directory_iterator(base)) {
      if (!e.is_regular_file() || !lintable(e.path())) continue;
      praft::lint::SourceFile sf;
      sf.path = rel_path(root_path, e.path());
      if (!read_file(e.path(), &sf.content)) {
        std::fprintf(stderr, "praft_lint: cannot read %s\n",
                     sf.path.c_str());
        return 2;
      }
      sources.push_back(std::move(sf));
    }
  }
  if (sources.empty()) {
    std::fprintf(stderr, "praft_lint: nothing to lint under %s/{src,tools}\n",
                 root.c_str());
    return 2;
  }
  // Deterministic input order (directory iteration order is OS-dependent).
  std::sort(sources.begin(), sources.end(),
            [](const auto& a, const auto& b) { return a.path < b.path; });

  const praft::lint::Project project(std::move(sources));
  const std::vector<praft::lint::Finding> findings =
      praft::lint::run_rules(project, only);
  for (const auto& f : findings) {
    std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
  }
  if (findings.empty()) {
    std::fprintf(stderr, "praft_lint: %zu files clean\n",
                 project.files().size());
    return 0;
  }
  std::fprintf(stderr, "praft_lint: %zu finding(s) across %zu files\n",
               findings.size(), project.files().size());
  return 1;
}
