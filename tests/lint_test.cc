// Fixture snippets for the repo linter: every rule fires exactly once on its
// known-bad snippet, stays quiet on clean code, and honors suppressions.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lint/analyzer.h"
#include "lint/lint.h"
#include "lint/yield_model.h"

namespace gvfs::lint {
namespace {

namespace fs = std::filesystem;

// Build a one-file call graph and run the three yield rules over it, the way
// lint_tree does for real sources.
std::vector<Finding> analyze(const std::string& path, const std::string& content) {
  YieldModel model = YieldModel::build({{path, content}});
  return analyze_content(path, content, model);
}

int count_rule(const std::vector<Finding>& fs_, const std::string& rule) {
  int n = 0;
  for (const auto& f : fs_) {
    if (f.rule == rule) ++n;
  }
  return n;
}

std::string dump(const std::vector<Finding>& fs_) {
  std::string out;
  for (const auto& f : fs_) out += to_string(f) + "\n";
  return out;
}

TEST(LintRng, RandomDeviceFires) {
  auto f = lint_content("src/cache/x.cc",
                        "#include <random>\n"
                        "int seed() { std::random_device rd; return rd(); }\n");
  EXPECT_EQ(count_rule(f, "determinism-rng"), 1) << dump(f);
  EXPECT_EQ(f.size(), 1u) << dump(f);
  EXPECT_EQ(f[0].line, 2);
}

TEST(LintRng, CRandFires) {
  auto f = lint_content("bench/x.cc", "int r() { return rand(); }\n");
  EXPECT_EQ(count_rule(f, "determinism-rng"), 1) << dump(f);
}

TEST(LintRng, SplitMixIsClean) {
  auto f = lint_content("src/cache/x.cc",
                        "#include \"common/rng.h\"\n"
                        "gvfs::u64 r(gvfs::SplitMix64& g) { return g.next(); }\n"
                        "gvfs::u64 s() { return gvfs::stateless_rand(1, 2); }\n");
  EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintClock, SystemClockFiresOutsideSim) {
  auto f = lint_content(
      "src/vfs/x.cc",
      "#include <chrono>\n"
      "auto t() { return std::chrono::system_clock::now(); }\n");
  EXPECT_EQ(count_rule(f, "determinism-clock"), 1) << dump(f);
  EXPECT_EQ(f[0].line, 2);
}

TEST(LintClock, SteadyClockAllowedInSim) {
  auto f = lint_content(
      "src/sim/x.cc",
      "#include <chrono>\n"
      "auto t() { return std::chrono::steady_clock::now(); }\n");
  EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintClock, TimeNullFires) {
  auto f = lint_content("src/nfs/x.cc",
                        "#include <ctime>\n"
                        "long now() { return time(nullptr); }\n");
  EXPECT_EQ(count_rule(f, "determinism-clock"), 1) << dump(f);
}

TEST(LintClock, GettimeofdayFires) {
  auto f = lint_content("src/proxy/x.cc",
                        "void f(struct timeval* tv) { gettimeofday(tv, 0); }\n");
  EXPECT_EQ(count_rule(f, "determinism-clock"), 1) << dump(f);
}

TEST(LintClock, NotifyTimeIdentifierIsClean) {
  // Identifiers merely containing "time"/"clock" must not trip the rule.
  auto f = lint_content("src/vfs/x.cc",
                        "long notify_time() { return 0; }\n"
                        "long wall_clock_ns = 0;\n");
  EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintUnordered, RangeForOverMemberFires) {
  auto f = lint_content(
      "src/cache/x.cc",
      "#include <unordered_map>\n"
      "struct C {\n"
      "  std::unordered_map<int, int> frames_;\n"
      "  int sum() {\n"
      "    int t = 0;\n"
      "    for (const auto& [k, v] : frames_) t += v;\n"
      "    return t;\n"
      "  }\n"
      "};\n");
  EXPECT_EQ(count_rule(f, "unordered-iteration"), 1) << dump(f);
  EXPECT_EQ(f[0].line, 6);
}

TEST(LintUnordered, ExplicitBeginFires) {
  auto f = lint_content("src/proxy/x.cc",
                        "#include <unordered_set>\n"
                        "std::unordered_set<int> live;\n"
                        "int first() { return *live.begin(); }\n");
  EXPECT_EQ(count_rule(f, "unordered-iteration"), 1) << dump(f);
}

TEST(LintUnordered, DeclarationInSiblingHeaderIsSeen) {
  auto f = lint_content("src/cache/x.cc",
                        "#include \"cache/x.h\"\n"
                        "int C::sum() {\n"
                        "  int t = 0;\n"
                        "  for (const auto& [k, v] : frames_) t += v;\n"
                        "  return t;\n"
                        "}\n",
                        /*sibling_header=*/
                        "#pragma once\n"
                        "#include <unordered_map>\n"
                        "struct C { std::unordered_map<int, int> frames_; int sum(); };\n");
  EXPECT_EQ(count_rule(f, "unordered-iteration"), 1) << dump(f);
}

TEST(LintUnordered, OrderedMapIsClean) {
  auto f = lint_content("src/cache/x.cc",
                        "#include <map>\n"
                        "std::map<int, int> m;\n"
                        "int s() { int t = 0; for (auto& [k, v] : m) t += v; return t; }\n");
  EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintUnordered, TestsAreOutOfScope) {
  auto f = lint_content(
      "tests/x.cc",
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> m;\n"
      "int s() { int t = 0; for (auto& [k, v] : m) t += v; return t; }\n");
  EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintPrint, CoutInLibraryFires) {
  auto f = lint_content("src/nfs/x.cc",
                        "#include <iostream>\n"
                        "void log() { std::cout << 1; }\n");
  EXPECT_EQ(count_rule(f, "stdout-print"), 1) << dump(f);
}

TEST(LintPrint, PrintfInLibraryFires) {
  auto f = lint_content("src/vm/x.cc",
                        "#include <cstdio>\n"
                        "void log() { std::printf(\"x\"); }\n");
  EXPECT_EQ(count_rule(f, "stdout-print"), 1) << dump(f);
}

TEST(LintPrint, BenchAndToolsAreSanctioned) {
  const char* snippet = "#include <cstdio>\nvoid out() { std::printf(\"x\"); }\n";
  EXPECT_TRUE(lint_content("bench/x.cc", snippet).empty());
  EXPECT_TRUE(lint_content("tools/x.cc", snippet).empty());
}

TEST(LintPrint, FprintfStderrIsClean) {
  auto f = lint_content("src/nfs/x.cc",
                        "#include <cstdio>\n"
                        "void log() { std::fprintf(stderr, \"x\"); }\n");
  EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintCounter, RawCounterMemberFires) {
  auto f = lint_content("src/cache/x.h",
                        "#pragma once\n"
                        "#include \"common/types.h\"\n"
                        "class C {\n"
                        "  gvfs::u64 hits_ = 0;\n"
                        "};\n");
  EXPECT_EQ(count_rule(f, "raw-counter"), 1) << dump(f);
  EXPECT_EQ(f[0].line, 4);
}

TEST(LintCounter, RegistryInstrumentIsClean) {
  auto f = lint_content("src/cache/x.h",
                        "#pragma once\n"
                        "#include \"common/metrics.h\"\n"
                        "class C {\n"
                        "  gvfs::metrics::Counter hits_;\n"
                        "  gvfs::metrics::Gauge resident_bytes_;\n"
                        "};\n");
  EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintCounter, MetricsHeaderAndNonSrcAreExempt) {
  const char* snippet = "#pragma once\nstruct S { u64 hits_ = 0; };\n";
  // The registry's own storage and code outside src/ may keep raw tallies.
  EXPECT_TRUE(lint_content("src/common/metrics.h", snippet).empty());
  EXPECT_TRUE(lint_content("bench/x.h", snippet).empty());
  EXPECT_TRUE(lint_content("tests/x.h", snippet).empty());
  auto f = lint_content("src/rpc/x.h", "#pragma once\nstruct S { gvfs::u64 timeouts_; };\n");
  EXPECT_EQ(count_rule(f, "raw-counter"), 1) << dump(f);
}

TEST(LintClusterFactory, DirectNfsServerConstructionInTopologyFires) {
  auto f = lint_content("src/gvfs/x.cc",
                        "#include \"nfs/nfs_server.h\"\n"
                        "auto s = std::make_unique<nfs::NfsServer>(k, fs, d, cfg);\n"
                        "auto* t = new nfs::NfsServer(k, fs, d, cfg);\n");
  EXPECT_EQ(count_rule(f, "cluster-factory"), 2) << dump(f);
}

TEST(LintClusterFactory, SanctionedFactorySiteIsSuppressed) {
  auto f = lint_content(
      "src/gvfs/testbed.cc",
      "// gvfs-lint: allow(cluster-factory) the sanctioned construction site\n"
      "auto s = std::make_unique<nfs::NfsServer>(k, fs, d, cfg);\n");
  EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintClusterFactory, OutsideTopologyCodeIsOutOfScope) {
  const char* snippet = "auto s = std::make_unique<nfs::NfsServer>(k, fs, d, cfg);\n";
  EXPECT_TRUE(lint_content("src/nfs/x.cc", snippet).empty());
  EXPECT_TRUE(lint_content("tests/x.cc", snippet).empty());
  EXPECT_TRUE(lint_content("bench/x.cc", snippet).empty());
}

TEST(LintFrameData, DirectPayloadAssignmentFires) {
  auto f = lint_content("src/cache/block_cache.cc",
                        "void f(Frame& fr, Frame* pf) {\n"
                        "  fr.data = make_bytes(v);\n"
                        "  pf->data = nullptr;\n"
                        "  fr.data.reset();\n"
                        "}\n");
  EXPECT_EQ(count_rule(f, "frame-data-mutation"), 3) << dump(f);
}

TEST(LintFrameData, ReadsAndHelperSitesAreClean) {
  auto f = lint_content(
      "src/cache/block_cache.cc",
      "u64 g(const Frame& fr) { return fr.data ? fr.data->size() : 0; }\n"
      "// gvfs-lint: allow(frame-data-mutation) sanctioned assign inside the helper\n"
      "void h(Frame& fr, BlobRef d) { fr.data = std::move(d); }\n"
      "bool eq(u64 a, u64 b) { return a == b; }\n");
  EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintFrameData, OutsideBlockCacheIsOutOfScope) {
  const char* snippet = "void f(Res& r) { r.data = blob::zero_ref(0); }\n";
  EXPECT_TRUE(lint_content("src/proxy/gvfs_proxy.cc", snippet).empty());
  EXPECT_TRUE(lint_content("src/nfs/x.cc", snippet).empty());
  EXPECT_TRUE(lint_content("tests/x.cc", snippet).empty());
}

TEST(LintLeaseTable, DirectLeaseTableMutationFires) {
  auto f = lint_content("src/nfs/nfs_server.cc",
                        "void f(u64 key, LeaseEntry e) {\n"
                        "  leases_[key] = e;\n"
                        "  leases_.erase(key);\n"
                        "  leases_.emplace(key, e);\n"
                        "  leases_.insert({key, e});\n"
                        "  leases_.clear();\n"
                        "}\n");
  EXPECT_EQ(count_rule(f, "lease-table-mutation"), 5) << dump(f);
}

TEST(LintLeaseTable, ReadsAndSanctionedHelperSitesAreClean) {
  auto f = lint_content(
      "src/nfs/nfs_server.cc",
      "u64 g() { return leases_.size(); }\n"
      "bool h(u64 k) { return leases_.find(k) != leases_.end(); }\n"
      "// gvfs-lint: allow(lease-table-mutation) sanctioned helper body\n"
      "void add(u64 k, LeaseEntry e) { leases_[k] = e; }\n");
  EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintLeaseTable, OutsideServerIsOutOfScope) {
  const char* snippet = "void f(u64 k) { leases_.erase(k); }\n";
  EXPECT_TRUE(lint_content("src/proxy/gvfs_proxy.cc", snippet).empty());
  EXPECT_TRUE(lint_content("src/nfs/nfs_types.cc", snippet).empty());
  EXPECT_TRUE(lint_content("tests/x.cc", snippet).empty());
}

TEST(LintHeaderGuard, MissingPragmaOnceFires) {
  auto f = lint_content("src/common/x.h", "int f();\n");
  EXPECT_EQ(count_rule(f, "header-guard"), 1) << dump(f);
}

TEST(LintHeaderGuard, PragmaOnceIsClean) {
  auto f = lint_content("src/common/x.h", "#pragma once\nint f();\n");
  EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintSuppression, SameLineAllowSilencesRule) {
  auto f = lint_content(
      "src/vfs/x.cc",
      "long t() { return time(nullptr); }  // gvfs-lint: allow(determinism-clock) reason\n");
  EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintSuppression, PrecedingLineAllowShieldsNextLine) {
  auto f = lint_content(
      "src/vfs/x.cc",
      "// gvfs-lint: allow(determinism-clock) reason\n"
      "long t() { return time(nullptr); }\n");
  EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintSuppression, FileAllowSilencesWholeFile) {
  auto f = lint_content("src/vfs/x.cc",
                        "// gvfs-lint: file-allow(determinism-clock)\n"
                        "long a() { return time(nullptr); }\n"
                        "long b() { return time(nullptr); }\n");
  EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintSuppression, AllowForOtherRuleDoesNotSilence) {
  auto f = lint_content(
      "src/vfs/x.cc",
      "long t() { return time(nullptr); }  // gvfs-lint: allow(stdout-print)\n");
  EXPECT_EQ(count_rule(f, "determinism-clock"), 1) << dump(f);
}

TEST(LintStripping, CommentsAndStringsNeverFire) {
  auto f = lint_content(
      "src/vfs/x.cc",
      "// talks about rand() and std::chrono::system_clock in prose\n"
      "/* also gettimeofday( in a block comment */\n"
      "const char* kMsg = \"rand() time(nullptr) std::cout\";\n");
  EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintTree, WalksFilesAndChecksCmakeRegistration) {
  fs::path root = fs::temp_directory_path() / "gvfs_lint_tree_test";
  fs::remove_all(root);
  fs::create_directories(root / "src" / "a");
  fs::create_directories(root / "src" / "lint_fixtures");
  auto write = [](const fs::path& p, const std::string& content) {
    std::ofstream out(p);
    out << content;
  };
  // registered.cc is named in CMakeLists; orphan.cc is not; guardless.h has
  // no pragma once; the lint_fixtures dir must be skipped entirely.
  write(root / "src" / "a" / "CMakeLists.txt", "add_library(a registered.cc)\n");
  write(root / "src" / "a" / "registered.cc", "int f() { return 1; }\n");
  write(root / "src" / "a" / "orphan.cc", "int g() { return 2; }\n");
  write(root / "src" / "a" / "guardless.h", "int h();\n");
  write(root / "src" / "lint_fixtures" / "bad.cc", "int r() { return rand(); }\n");

  auto f = lint_tree(root.string());
  EXPECT_EQ(count_rule(f, "cmake-registration"), 1) << dump(f);
  EXPECT_EQ(count_rule(f, "header-guard"), 1) << dump(f);
  EXPECT_EQ(count_rule(f, "determinism-rng"), 0) << dump(f);  // fixtures skipped
  ASSERT_EQ(f.size(), 2u) << dump(f);
  EXPECT_EQ(f[0].file, "src/a/guardless.h");
  EXPECT_EQ(f[1].file, "src/a/orphan.cc");
  fs::remove_all(root);
}

TEST(LintTree, RepoTreeIsClean) {
  // The in-tree gate (ctest runs gvfs_lint --root) must agree with the
  // library: lint the actual repository if we can find it.
  fs::path root = fs::current_path();
  while (!fs::exists(root / "src" / "sim" / "kernel.h") &&
         root.has_parent_path() && root != root.parent_path()) {
    root = root.parent_path();
  }
  if (!fs::exists(root / "src" / "sim" / "kernel.h")) {
    GTEST_SKIP() << "repo root not found from " << fs::current_path();
  }
  auto f = lint_tree(root.string());
  EXPECT_TRUE(f.empty()) << dump(f);
}

// ---- yield-point invalidation rules (tools/lint/analyzer.h) ----------------

TEST(LintYield, StaleRefAcrossDirectYieldFires) {
  auto f = analyze("src/proxy/x.cc",
                   "struct C {\n"
                   "  std::map<int, int> m_;\n"
                   "  sim::Signal sig_;\n"
                   "  int f(sim::Process& p) {\n"
                   "    auto it = m_.find(1);\n"
                   "    p.wait(sig_);\n"
                   "    return it->second;\n"
                   "  }\n"
                   "};\n");
  EXPECT_EQ(count_rule(f, "yield-stale-ref"), 1) << dump(f);
  ASSERT_FALSE(f.empty());
  EXPECT_EQ(f[0].line, 7);
}

TEST(LintYield, TwoHopTransitivePropagationFires) {
  const char* src =
      "struct C {\n"
      "  std::map<int, int> m_;\n"
      "  sim::Signal sig_;\n"
      "  void leaf(sim::Process& p) { p.wait(sig_); }\n"
      "  void mid(sim::Process& p) { leaf(p); }\n"
      "  int top(sim::Process& p) {\n"
      "    auto it = m_.find(1);\n"
      "    mid(p);\n"
      "    return it->second;\n"
      "  }\n"
      "};\n";
  YieldModel model = YieldModel::build({{"src/proxy/x.cc", src}});
  EXPECT_TRUE(model.name_may_yield("leaf"));
  EXPECT_TRUE(model.name_may_yield("mid"));
  EXPECT_TRUE(model.name_may_yield("top"));
  auto f = analyze_content("src/proxy/x.cc", src, model);
  EXPECT_EQ(count_rule(f, "yield-stale-ref"), 1) << dump(f);
  ASSERT_FALSE(f.empty());
  EXPECT_EQ(f[0].line, 9);
}

TEST(LintYield, AnnotationSeedsStoredHandleYielder) {
  // kick() blocks through a stored process handle the model cannot see; the
  // annotation supplies the missing seed and propagation does the rest.
  auto f = analyze("src/proxy/x.cc",
                   "struct C {\n"
                   "  std::map<int, int> m_;\n"
                   "  // gvfs-yield: yields blocks via the stored handle\n"
                   "  void kick(sim::Process& p) { helper->poke(); }\n"
                   "  int f(sim::Process& p) {\n"
                   "    auto it = m_.find(1);\n"
                   "    kick(p);\n"
                   "    return it->second;\n"
                   "  }\n"
                   "};\n");
  EXPECT_EQ(count_rule(f, "yield-stale-ref"), 1) << dump(f);
}

TEST(LintYield, CallbackMemberCallSeedsYield) {
  // upload_ is a stored callback taking the process handle: the call blocks
  // behind type erasure, with no primitive in sight. A callback that only
  // reads the process (const Process&) cannot block and seeds nothing.
  const char* src =
      "struct C {\n"
      "  using UploadFn = std::function<Status(sim::Process& p, u64 key)>;\n"
      "  using Tracer = std::function<void(const sim::Process& p)>;\n"
      "  std::list<int> lru_;\n"
      "  UploadFn upload_;\n"
      "  Tracer tracer_;\n"
      "  int evict(sim::Process& p) {\n"
      "    int& victim = lru_.back();\n"
      "    upload_(p, 1);\n"
      "    return victim;\n"
      "  }\n"
      "};\n";
  YieldModel model = YieldModel::build({{"src/cache/x.cc", src}});
  EXPECT_TRUE(model.name_may_yield("upload_"));
  EXPECT_TRUE(model.name_may_yield("evict"));
  EXPECT_FALSE(model.name_may_yield("tracer_"));
  auto f = analyze_content("src/cache/x.cc", src, model);
  EXPECT_EQ(count_rule(f, "yield-stale-ref"), 1) << dump(f);
  ASSERT_FALSE(f.empty());
  EXPECT_EQ(f[0].line, 10);
}

TEST(LintYield, IndexLoopOverMemberWithYieldFires) {
  auto f = analyze("src/cache/x.cc",
                   "struct C {\n"
                   "  std::vector<int> q_;\n"
                   "  sim::Signal sig_;\n"
                   "  void f(sim::Process& p) {\n"
                   "    for (std::size_t i = 0; i < q_.size(); ++i) {\n"
                   "      p.wait(sig_);\n"
                   "    }\n"
                   "  }\n"
                   "};\n");
  EXPECT_EQ(count_rule(f, "yield-index-loop"), 1) << dump(f);
  ASSERT_FALSE(f.empty());
  EXPECT_EQ(f[0].line, 5);
}

TEST(LintYield, RangeForOverMemberWithYieldFires) {
  auto f = analyze("src/nfs/x.cc",
                   "struct C {\n"
                   "  std::vector<int> q_;\n"
                   "  sim::Signal sig_;\n"
                   "  void f(sim::Process& p) {\n"
                   "    for (int v : q_) {\n"
                   "      p.wait(sig_);\n"
                   "    }\n"
                   "  }\n"
                   "};\n");
  EXPECT_EQ(count_rule(f, "yield-index-loop"), 1) << dump(f);
}

TEST(LintYield, WhileRecheckLoopIsClean) {
  // The safe shape: a while that re-reads the container every pass instead
  // of holding an index across the yield.
  auto f = analyze("src/cache/x.cc",
                   "struct C {\n"
                   "  std::vector<int> q_;\n"
                   "  sim::Signal sig_;\n"
                   "  void f(sim::Process& p) {\n"
                   "    while (!q_.empty()) {\n"
                   "      p.wait(sig_);\n"
                   "      q_.pop_back();\n"
                   "    }\n"
                   "  }\n"
                   "};\n");
  EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintYield, HeldLockAcrossYieldFires) {
  auto f = analyze("src/proxy/x.cc",
                   "struct C {\n"
                   "  sim::Semaphore sem_;\n"
                   "  sim::Signal sig_;\n"
                   "  void f(sim::Process& p) {\n"
                   "    sim::ScopedPermit g(p, sem_);\n"
                   "    p.wait(sig_);\n"
                   "  }\n"
                   "};\n");
  EXPECT_EQ(count_rule(f, "yield-held-lock"), 1) << dump(f);
}

TEST(LintYield, AllowHeldSuppressesHeldLock) {
  auto f = analyze("src/proxy/x.cc",
                   "struct C {\n"
                   "  sim::Semaphore sem_;\n"
                   "  sim::Signal sig_;\n"
                   "  void f(sim::Process& p) {\n"
                   "    // gvfs-yield: allow-held models the fixed worker pool\n"
                   "    sim::ScopedPermit g(p, sem_);\n"
                   "    p.wait(sig_);\n"
                   "  }\n"
                   "};\n");
  EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintYield, DeclLineAllowSuppressesStaleRef) {
  auto f = analyze(
      "src/proxy/x.cc",
      "struct C {\n"
      "  std::map<int, int> m_;\n"
      "  sim::Signal sig_;\n"
      "  int f(sim::Process& p) {\n"
      "    auto it = m_.find(1);  // gvfs-lint: allow(yield-stale-ref) stable\n"
      "    p.wait(sig_);\n"
      "    return it->second;\n"
      "  }\n"
      "};\n");
  EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintYield, PrecedingLineAllowSuppressesIndexLoop) {
  auto f = analyze("src/cache/x.cc",
                   "struct C {\n"
                   "  std::vector<int> q_;\n"
                   "  sim::Signal sig_;\n"
                   "  void f(sim::Process& p) {\n"
                   "    // gvfs-lint: allow(yield-index-loop) q_ never resizes\n"
                   "    for (std::size_t i = 0; i < q_.size(); ++i) {\n"
                   "      p.wait(sig_);\n"
                   "    }\n"
                   "  }\n"
                   "};\n");
  EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintYield, LocalContainerIsClean) {
  // Locals live on this fiber's stack; no other fiber can invalidate them.
  auto f = analyze("src/proxy/x.cc",
                   "struct C {\n"
                   "  sim::Signal sig_;\n"
                   "  int f(sim::Process& p) {\n"
                   "    std::map<int, int> local;\n"
                   "    auto it = local.find(1);\n"
                   "    p.wait(sig_);\n"
                   "    for (std::size_t i = 0; i < local.size(); ++i) p.wait(sig_);\n"
                   "    return it->second;\n"
                   "  }\n"
                   "};\n");
  EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintYield, ByValueCopyIsClean) {
  // Copying the element before the yield is the sanctioned fix; the copy
  // must not be tracked as a handle into the container.
  auto f = analyze("src/proxy/x.cc",
                   "struct C {\n"
                   "  std::map<int, int> m_;\n"
                   "  sim::Signal sig_;\n"
                   "  int f(sim::Process& p) {\n"
                   "    int v = m_.at(1);\n"
                   "    p.wait(sig_);\n"
                   "    return v;\n"
                   "  }\n"
                   "};\n");
  EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintYield, ReacquireAfterYieldIsClean) {
  auto f = analyze("src/proxy/x.cc",
                   "struct C {\n"
                   "  std::map<int, int> m_;\n"
                   "  sim::Signal sig_;\n"
                   "  int f(sim::Process& p) {\n"
                   "    auto it = m_.find(1);\n"
                   "    p.wait(sig_);\n"
                   "    it = m_.find(1);\n"
                   "    return it->second;\n"
                   "  }\n"
                   "};\n");
  EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintYield, AssignmentOnYieldLineStaysFresh) {
  // `it = refetch(p)` yields inside the call, but the assignment lands after
  // it returns — the re-acquire idiom must not flag its own refresh.
  auto f = analyze("src/proxy/x.cc",
                   "struct C {\n"
                   "  std::map<int, int> m_;\n"
                   "  sim::Signal sig_;\n"
                   "  auto refetch(sim::Process& p) { p.wait(sig_); return m_.find(1); }\n"
                   "  int f(sim::Process& p) {\n"
                   "    auto it = m_.find(1);\n"
                   "    it = refetch(p);\n"
                   "    return it->second;\n"
                   "  }\n"
                   "};\n");
  EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintYield, SpawnLambdaBodyDoesNotMarkSpawner) {
  // The lambda runs as its own fiber under its own Process&: its yields are
  // not the spawner's, and spawn() itself does not take the spawner's handle.
  const char* src =
      "struct C {\n"
      "  std::map<int, int> m_;\n"
      "  sim::Signal sig_;\n"
      "  int f(sim::Process& p, sim::SimKernel& k) {\n"
      "    auto it = m_.find(1);\n"
      "    k.spawn(\"w\", [this](sim::Process& fp) { fp.wait(sig_); });\n"
      "    return it->second;\n"
      "  }\n"
      "};\n";
  YieldModel model = YieldModel::build({{"src/proxy/x.cc", src}});
  EXPECT_FALSE(model.name_may_yield("f"));
  auto f = analyze_content("src/proxy/x.cc", src, model);
  EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintYield, ScopeCoversProxyCascadeOnly) {
  EXPECT_TRUE(yield_rules_scoped("src/proxy/x.cc"));
  EXPECT_TRUE(yield_rules_scoped("src/gvfs/x.cc"));
  EXPECT_TRUE(yield_rules_scoped("src/nfs/x.cc"));
  EXPECT_TRUE(yield_rules_scoped("src/cache/x.cc"));
  EXPECT_FALSE(yield_rules_scoped("src/sim/x.cc"));
  EXPECT_FALSE(yield_rules_scoped("src/vm/x.cc"));
  EXPECT_FALSE(yield_rules_scoped("tests/x.cc"));
}

TEST(LintYield, GoldenLinesNameMayYieldFunctions) {
  const char* src =
      "struct C {\n"
      "  sim::Signal sig_;\n"
      "  void leaf(sim::Process& p) { p.wait(sig_); }\n"
      "  void mid(sim::Process& p) { leaf(p); }\n"
      "  void pure() { }\n"
      "};\n";
  YieldModel model = YieldModel::build({{"src/proxy/x.cc", src}});
  std::string joined;
  for (const std::string& l : model.golden_lines()) joined += l + "\n";
  EXPECT_NE(joined.find("leaf"), std::string::npos) << joined;
  EXPECT_NE(joined.find("mid"), std::string::npos) << joined;
  EXPECT_EQ(joined.find("pure"), std::string::npos) << joined;
  EXPECT_NE(joined.find("src/proxy/x.cc:"), std::string::npos) << joined;
}

TEST(LintRules, EveryRuleHasAFixtureThatFires) {
  // all_rules() is the contract; each id must be triggerable.
  std::vector<std::string> fired;
  auto collect = [&](const std::vector<Finding>& fs_) {
    for (const auto& f : fs_) fired.push_back(f.rule);
  };
  collect(lint_content("src/x.cc", "int r() { return rand(); }\n"));
  collect(lint_content("src/x.cc", "long t() { return time(nullptr); }\n"));
  collect(lint_content("src/x.cc",
                       "#include <unordered_map>\n"
                       "std::unordered_map<int, int> m;\n"
                       "int s() { int t = 0; for (auto& [k, v] : m) t += v; return t; }\n"));
  collect(lint_content("src/x.cc", "void f() { std::cout << 1; }\n"));
  collect(lint_content("src/x.h", "int f();\n"));
  collect(lint_content("src/x.h", "#pragma once\nstruct S { u64 hits_ = 0; };\n"));
  collect(lint_content("src/gvfs/x.cc",
                       "auto s = std::make_unique<nfs::NfsServer>(cfg);\n"));
  collect(lint_content("src/cache/block_cache.cc",
                       "void f(Frame& fr) { fr.data = nullptr; }\n"));
  collect(lint_content("src/nfs/nfs_server.cc",
                       "void f(u64 k) { leases_.erase(k); }\n"));
  // The three yield rules need a call-graph model; one snippet fires all of
  // them (stale handle, member index loop, and a held permit, each across
  // the same yield).
  const char* yield_src =
      "struct C {\n"
      "  std::map<int, int> m_;\n"
      "  sim::Semaphore sem_;\n"
      "  sim::Signal sig_;\n"
      "  int f(sim::Process& p) {\n"
      "    sim::ScopedPermit g(p, sem_);\n"
      "    auto it = m_.find(1);\n"
      "    for (std::size_t i = 0; i < m_.size(); ++i) {\n"
      "      p.wait(sig_);\n"
      "    }\n"
      "    return it->second;\n"
      "  }\n"
      "};\n";
  collect(analyze("src/proxy/x.cc", yield_src));
  for (const std::string& rule : all_rules()) {
    if (rule == "cmake-registration") continue;  // covered by LintTree
    EXPECT_NE(std::find(fired.begin(), fired.end(), rule), fired.end())
        << "no fixture fires rule " << rule;
  }
}

}  // namespace
}  // namespace gvfs::lint
