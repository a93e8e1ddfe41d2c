// praft_lint rule tests: each rule is demonstrated by a seeded fixture — the
// violation must be convicted at the right file:line, the inline suppression
// must mute it, and the clean variant must produce zero findings. The
// wire-completeness tests additionally prove that removing either piece a
// message needs (its fields list, its operator==) makes W1 fail — the
// property CI relies on.
//
// The real-tree run (praft_lint over src/ and tools/) is the separate
// `lint_repo` ctest leg registered in CMakeLists.txt.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lint/model.h"
#include "lint/rules.h"

namespace praft::lint {
namespace {

Project make_project(std::vector<SourceFile> files) {
  return Project(std::move(files));
}

std::vector<Finding> lint_one(const std::string& path,
                              const std::string& content,
                              const std::string& rule) {
  return run_rules(make_project({{path, content}}), {rule});
}

bool has_finding(const std::vector<Finding>& fs, const std::string& file,
                 int line, const std::string& rule) {
  for (const Finding& f : fs) {
    if (f.file == file && f.line == line && f.rule == rule) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// D1 — unordered iteration.
// ---------------------------------------------------------------------------

TEST(LintD1, ConvictsRangeForOverUnorderedMember) {
  const std::string src =
      "#include <unordered_map>\n"                        // 1
      "struct S {\n"                                      // 2
      "  void emit() {\n"                                 // 3
      "    for (const auto& [k, v] : peers_) { use(v); }\n"  // 4  <- here
      "  }\n"                                             // 5
      "  std::unordered_map<int, int> peers_;\n"          // 6
      "};\n";
  const auto fs = lint_one("src/x/a.h", src, "D1");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(has_finding(fs, "src/x/a.h", 4, "D1"));
}

TEST(LintD1, ConvictsAcrossIncludeClosure) {
  // Member declared unordered in the header; iterated in the .cpp. The
  // include closure is what carries the declaration to the use site.
  const std::string hdr =
      "#include <unordered_map>\n"
      "struct S { std::unordered_map<int, int> index_; };\n";
  const std::string cpp =
      "#include \"x/a.h\"\n"                     // 1
      "void f(S& s) {\n"                         // 2
      "  for (auto& kv : s.index_) { use(kv); }\n"  // 3  <- here
      "}\n";
  const auto fs = run_rules(
      make_project({{"src/x/a.h", hdr}, {"src/x/a.cpp", cpp}}), {"D1"});
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(has_finding(fs, "src/x/a.cpp", 3, "D1"));
}

TEST(LintD1, ConvictsBeginIteratorWalk) {
  const std::string src =
      "#include <unordered_map>\n"                       // 1
      "struct S {\n"                                     // 2
      "  std::unordered_map<int, int> pending_;\n"       // 3
      "  void drop() {\n"                                // 4
      "    for (auto it = pending_.begin(); it != pending_.end();) {\n"  // 5
      "      it = pending_.erase(it);\n"                 // 6
      "    }\n"
      "  }\n"
      "};\n";
  const auto fs = lint_one("src/x/a.h", src, "D1");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(has_finding(fs, "src/x/a.h", 5, "D1"));
}

TEST(LintD1, ConvictsThroughTypeAlias) {
  const std::string src =
      "#include <unordered_map>\n"                          // 1
      "using PendingMap = std::unordered_map<int, int>;\n"  // 2
      "struct S {\n"                                        // 3
      "  PendingMap pending_;\n"                            // 4
      "  void walk() {\n"                                   // 5
      "    for (auto& kv : pending_) { use(kv); }\n"        // 6  <- here
      "  }\n"
      "};\n";
  const auto fs = lint_one("src/x/a.h", src, "D1");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(has_finding(fs, "src/x/a.h", 6, "D1"));
}

TEST(LintD1, SuppressionOnPrecedingLineIsHonored) {
  const std::string src =
      "#include <unordered_map>\n"
      "struct S {\n"
      "  std::unordered_map<int, int> peers_;\n"
      "  void emit() {\n"
      "    // praft-lint: allow(D1 XOR fold is order-insensitive)\n"
      "    for (const auto& [k, v] : peers_) { use(v); }\n"
      "  }\n"
      "};\n";
  EXPECT_TRUE(lint_one("src/x/a.h", src, "D1").empty());
}

TEST(LintD1, OrderedContainersAreClean) {
  const std::string src =
      "#include <map>\n"
      "struct S {\n"
      "  std::map<int, int> peers_;\n"
      "  void emit() {\n"
      "    for (const auto& [k, v] : peers_) { use(v); }\n"
      "    for (auto it = peers_.begin(); it != peers_.end(); ++it) {}\n"
      "  }\n"
      "};\n";
  EXPECT_TRUE(lint_one("src/x/a.h", src, "D1").empty());
}

TEST(LintD1, LookupWithoutIterationIsClean) {
  const std::string src =
      "#include <unordered_map>\n"
      "struct S {\n"
      "  std::unordered_map<int, int> index_;\n"
      "  int get(int k) const {\n"
      "    auto it = index_.find(k);\n"
      "    return it == index_.end() ? 0 : it->second;\n"
      "  }\n"
      "};\n";
  EXPECT_TRUE(lint_one("src/x/a.h", src, "D1").empty());
}

// ---------------------------------------------------------------------------
// D2 — nondeterminism sources.
// ---------------------------------------------------------------------------

TEST(LintD2, ConvictsSteadyClockNow) {
  const std::string src =
      "#include <chrono>\n"                                        // 1
      "long f() {\n"                                               // 2
      "  auto t = std::chrono::steady_clock::now();\n"             // 3
      "  return t.time_since_epoch().count();\n"
      "}\n";
  const auto fs = lint_one("src/x/a.cpp", src, "D2");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(has_finding(fs, "src/x/a.cpp", 3, "D2"));
}

TEST(LintD2, ConvictsLibcRandAndTimeCalls) {
  const std::string src =
      "#include <cstdlib>\n"            // 1
      "int f() {\n"                     // 2
      "  int a = rand();\n"             // 3  <- rand
      "  return a + time(nullptr);\n"   // 4  <- time
      "}\n";
  const auto fs = lint_one("src/x/a.cpp", src, "D2");
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_TRUE(has_finding(fs, "src/x/a.cpp", 3, "D2"));
  EXPECT_TRUE(has_finding(fs, "src/x/a.cpp", 4, "D2"));
}

TEST(LintD2, ConvictsRandomDevice) {
  const std::string src =
      "#include <random>\n"                 // 1
      "unsigned f() {\n"                    // 2
      "  std::random_device rd;\n"          // 3  <- here
      "  return rd();\n"
      "}\n";
  const auto fs = lint_one("src/x/a.cpp", src, "D2");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(has_finding(fs, "src/x/a.cpp", 3, "D2"));
}

TEST(LintD2, DeclarationNamedTimeIsNotACall) {
  // `uint64_t time(...)` declares a function; only call-position uses of the
  // banned names convict.
  const std::string src =
      "struct Env {\n"
      "  virtual uint64_t time() const = 0;\n"
      "};\n";
  EXPECT_TRUE(lint_one("src/x/a.h", src, "D2").empty());
}

TEST(LintD2, MemberNamedClockIsNotACall) {
  const std::string src =
      "long f(Env& env) { return env.clock(); }\n";
  EXPECT_TRUE(lint_one("src/x/a.cpp", src, "D2").empty());
}

TEST(LintD2, RngHeaderIsExempt) {
  const std::string src =
      "#include <random>\n"
      "unsigned seed_entropy() { std::random_device rd; return rd(); }\n";
  EXPECT_TRUE(lint_one("src/common/rng.h", src, "D2").empty());
}

TEST(LintD2, SuppressionIsHonored) {
  const std::string src =
      "#include <chrono>\n"
      "// praft-lint: allow(D2 wall-clock reporting only)\n"
      "auto t0 = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(lint_one("src/x/a.cpp", src, "D2").empty());
}

// ---------------------------------------------------------------------------
// W1 — wire completeness. One canonical fixture, then each piece a message
// needs is removed in turn and the removal must convict.
// ---------------------------------------------------------------------------

const char kMessagesH[] =
    "#include <variant>\n"                                        // 1
    "struct Ping {\n"                                             // 2
    "  int x = 0;\n"                                              // 3
    "  template <class M, class F>\n"                             // 4
    "  static void fields(M& m, F&& f) { f(m.x); }\n"             // 5
    "  friend bool operator==(const Ping&, const Ping&) = default;\n"
    "};\n"                                                        // 7
    "struct Pong {\n"                                             // 8
    "  int y = 0;\n"                                              // 9
    "  template <class M, class F>\n"                             // 10
    "  static void fields(M& m, F&& f) { f(m.y); }\n"             // 11
    "  friend bool operator==(const Pong&, const Pong&) = default;\n"
    "};\n"                                                        // 13
    "using Message = std::variant<Ping, Pong>;\n";                // 14

const char kWireCpp[] =
    "#include \"x/messages.h\"\n"
    "Frame encode(const Message& m, BufferPool& pool) {\n"
    "  return net::encode(Family::kX, m, pool);\n"
    "}\n";

std::vector<Finding> lint_wire(const std::string& hdr,
                               const std::string& wire) {
  return run_rules(
      make_project({{"src/x/messages.h", hdr}, {"src/x/wire.cpp", wire}}),
      {"W1"});
}

std::string drop_line(const std::string& s, const std::string& needle) {
  std::string out;
  size_t pos = 0;
  while (pos < s.size()) {
    const size_t eol = s.find('\n', pos);
    const std::string line = s.substr(pos, eol - pos);
    if (line.find(needle) == std::string::npos) out += line + "\n";
    pos = eol == std::string::npos ? s.size() : eol + 1;
  }
  return out;
}

TEST(LintW1, CompleteCodecIsClean) {
  EXPECT_TRUE(lint_wire(kMessagesH, kWireCpp).empty());
}

TEST(LintW1, MissingFieldListConvictsAtStructLine) {
  const auto fs = lint_wire(drop_line(kMessagesH, "f(m.y)"), kWireCpp);
  ASSERT_EQ(fs.size(), 1u);
  // Anchored at `struct Pong`; Ping's list does not count for Pong.
  EXPECT_TRUE(has_finding(fs, "src/x/messages.h", 8, "W1"));
  EXPECT_NE(fs[0].message.find("Pong"), std::string::npos);
  EXPECT_NE(fs[0].message.find("fields"), std::string::npos);
}

TEST(LintW1, MissingEqualityConvictsAtStructLine) {
  const auto fs = lint_wire(
      drop_line(kMessagesH, "operator==(const Pong&"), kWireCpp);
  ASSERT_EQ(fs.size(), 1u);
  // Anchored at `struct Pong` (line 8; the dropped operator== line came
  // after it).
  EXPECT_TRUE(has_finding(fs, "src/x/messages.h", 8, "W1"));
  EXPECT_NE(fs[0].message.find("operator=="), std::string::npos);
}

TEST(LintW1, DirectoryWithoutMessageVariantIsIgnored) {
  const auto fs = run_rules(
      make_project({{"src/x/helpers.h", "struct H { int z; };\n"},
                    {"src/x/wire.cpp", "void unrelated() {}\n"}}),
      {"W1"});
  EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------------
// C1 — assert/abort discipline.
// ---------------------------------------------------------------------------

TEST(LintC1, ConvictsAssertAndAbort) {
  const std::string src =
      "#include <cassert>\n"            // 1
      "void f(int x) {\n"               // 2
      "  assert(x > 0);\n"              // 3  <- assert
      "  if (x > 9) std::abort();\n"    // 4  <- abort
      "}\n";
  const auto fs = lint_one("src/x/a.cpp", src, "C1");
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_TRUE(has_finding(fs, "src/x/a.cpp", 3, "C1"));
  EXPECT_TRUE(has_finding(fs, "src/x/a.cpp", 4, "C1"));
}

TEST(LintC1, StaticAssertAndPraftCheckAreClean) {
  const std::string src =
      "#include \"common/check.h\"\n"
      "static_assert(sizeof(int) == 4);\n"
      "void f(int x) { PRAFT_CHECK(x > 0); }\n";
  EXPECT_TRUE(lint_one("src/x/a.cpp", src, "C1").empty());
}

TEST(LintC1, OnlySrcIsInScope) {
  const std::string src = "void f(int x) { assert(x > 0); }\n";
  EXPECT_TRUE(lint_one("tools/helper.cpp", src, "C1").empty());
  EXPECT_FALSE(lint_one("src/x/a.cpp", src, "C1").empty());
}

// ---------------------------------------------------------------------------
// P1 — Persister durability seam.
// ---------------------------------------------------------------------------

TEST(LintP1, ConvictsRawEnvSendInProtocolDir) {
  const std::string src =
      "void Node::reply(int to, Payload p) {\n"  // 1
      "  env_.send(to, p);\n"                    // 2  <- here
      "}\n";
  // Most Raft-family sends live in the shared header raft/core.h.
  for (const char* path : {"src/raft/node.cpp", "src/raft/core.h"}) {
    const auto fs = lint_one(path, src, "P1");
    ASSERT_EQ(fs.size(), 1u) << path;
    EXPECT_TRUE(has_finding(fs, path, 2, "P1")) << path;
  }
}

TEST(LintP1, PersisterSendIsTheSanctionedSeam) {
  const std::string src =
      "void Node::reply(int to, Payload p) {\n"
      "  persister_.send(to, p);\n"
      "  persister_.send_unsynced(to, p);\n"
      "}\n";
  EXPECT_TRUE(lint_one("src/raft/node.cpp", src, "P1").empty());
}

TEST(LintP1, NonProtocolDirsAreOutOfScope) {
  const std::string src = "void f(Env& e, Payload p) { e.send(3, p); }\n";
  EXPECT_TRUE(lint_one("src/storage/persister.h", src, "P1").empty());
  EXPECT_TRUE(lint_one("src/harness/host.cpp", src, "P1").empty());
  EXPECT_FALSE(lint_one("src/mencius/node.cpp", src, "P1").empty());
}

// ---------------------------------------------------------------------------
// Suppression mechanics shared by all rules.
// ---------------------------------------------------------------------------

TEST(LintSuppress, SameLineTrailingCommentWorks) {
  const std::string src =
      "void f(int x) { assert(x); }  "
      "// praft-lint: allow(C1 fixture)\n";
  EXPECT_TRUE(lint_one("src/x/a.cpp", src, "C1").empty());
}

TEST(LintSuppress, WrongRuleDoesNotSuppress) {
  const std::string src =
      "// praft-lint: allow(D1 wrong rule)\n"
      "void f(int x) { assert(x); }\n";
  EXPECT_FALSE(lint_one("src/x/a.cpp", src, "C1").empty());
}

TEST(LintSuppress, SuppressionDoesNotLeakPastNextLine) {
  const std::string src =
      "// praft-lint: allow(C1 covers lines 1-2 only)\n"  // 1
      "void f(int x) {\n"                                 // 2
      "  assert(x);\n"                                    // 3  <- not covered
      "}\n";
  const auto fs = lint_one("src/x/a.cpp", src, "C1");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(has_finding(fs, "src/x/a.cpp", 3, "C1"));
}

}  // namespace
}  // namespace praft::lint
