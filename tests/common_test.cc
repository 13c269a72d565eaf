// Unit tests for the common foundation: Status/Result, hashing, RNG,
// formatting and streaming statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/hash.h"
#include "common/heap.h"
#include "common/mutation_epoch.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/types.h"

namespace gvfs {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), ErrCode::kOk);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = err(ErrCode::kNoEnt, "missing.txt");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrCode::kNoEnt);
  EXPECT_EQ(s.to_string(), "NOENT: missing.txt");
}

TEST(Status, EqualityComparesCodeOnly) {
  EXPECT_EQ(err(ErrCode::kIo, "a"), err(ErrCode::kIo, "b"));
  EXPECT_FALSE(err(ErrCode::kIo) == err(ErrCode::kStale));
}

TEST(Status, EveryCodeHasAName) {
  for (ErrCode c : {ErrCode::kOk, ErrCode::kPerm, ErrCode::kNoEnt, ErrCode::kIo,
                    ErrCode::kAccess, ErrCode::kExist, ErrCode::kNotDir,
                    ErrCode::kIsDir, ErrCode::kInval, ErrCode::kFBig,
                    ErrCode::kNoSpc, ErrCode::kRoFs, ErrCode::kNameTooLong,
                    ErrCode::kNotEmpty, ErrCode::kStale, ErrCode::kBadHandle,
                    ErrCode::kNotSupported, ErrCode::kBadXdr, ErrCode::kRpcMismatch,
                    ErrCode::kAuthError, ErrCode::kTimeout, ErrCode::kClosed,
                    ErrCode::kInternal}) {
    EXPECT_STRNE(err_name(c), "UNKNOWN");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(-1), 42);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(Result, HoldsError) {
  Result<int> r = err(ErrCode::kStale, "gone");
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), ErrCode::kStale);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> half(int v) {
  if (v % 2 != 0) return err(ErrCode::kInval, "odd");
  return v / 2;
}

Status quarter(int v, int* out) {
  GVFS_ASSIGN_OR_RETURN(int h, half(v));
  GVFS_ASSIGN_OR_RETURN(int q, half(h));
  *out = q;
  return Status::ok();
}

TEST(Result, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(quarter(8, &out).is_ok());
  EXPECT_EQ(out, 2);
  EXPECT_EQ(quarter(6, &out).code(), ErrCode::kInval);
}

TEST(Types, ByteLiterals) {
  EXPECT_EQ(4_KiB, 4096u);
  EXPECT_EQ(1_MiB, 1048576u);
  EXPECT_EQ(2_GiB, u64{2} * 1024 * 1024 * 1024);
}

TEST(Types, TransferTime) {
  // 1 MiB at 1 MiB/s = 1 s.
  EXPECT_EQ(transfer_time(1_MiB, static_cast<double>(1_MiB)), kSecond);
  EXPECT_EQ(transfer_time(0, 100.0), 0);
  // Tiny transfers round up to at least 1 ns.
  EXPECT_GE(transfer_time(1, 1e12), 1);
}

TEST(Types, SecondsRoundTrip) {
  EXPECT_DOUBLE_EQ(to_seconds(from_seconds(3.25)), 3.25);
  EXPECT_EQ(from_millis(1.0), kMillisecond);
}

TEST(Hash, Fnv1aMatchesKnownVector) {
  // FNV-1a 64 of empty string is the offset basis.
  EXPECT_EQ(fnv1a64(std::string_view{}), kFnvOffset);
  // Well-known vector: "a" -> 0xaf63dc4c8601ec8c.
  EXPECT_EQ(fnv1a64(std::string_view{"a"}), 0xaf63dc4c8601ec8cULL);
}

TEST(Hash, CombineOrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
  EXPECT_EQ(hash_combine(1, 2), hash_combine(1, 2));
}

TEST(Hash, Mix64Bijective) {
  std::set<u64> seen;
  for (u64 i = 0; i < 1000; ++i) seen.insert(mix64(i));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(Rng, Deterministic) {
  SplitMix64 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, NextBelowInRange) {
  SplitMix64 rng(1);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, DoubleInUnitInterval) {
  SplitMix64 rng(2);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialMeanRoughlyRight) {
  SplitMix64 rng(3);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST(Rng, StatelessRandStable) {
  EXPECT_EQ(stateless_rand(1, 2), stateless_rand(1, 2));
  EXPECT_NE(stateless_rand(1, 2), stateless_rand(1, 3));
  EXPECT_NE(stateless_rand(1, 2), stateless_rand(2, 2));
}

TEST(Strings, FmtDouble) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(2.0, 0), "2");
}

TEST(Strings, FmtDurations) {
  EXPECT_EQ(fmt_mmss(205), "03:25");
  EXPECT_EQ(fmt_hhmm(3725), "1:02:05");
}

TEST(Strings, FmtBytes) {
  EXPECT_EQ(fmt_bytes(512), "512 B");
  EXPECT_EQ(fmt_bytes(8_KiB), "8 KB");
  EXPECT_EQ(fmt_bytes(320_MiB), "320 MB");
  EXPECT_EQ(fmt_bytes(u64{1638} * 1_MiB), "1.6 GB");
}

TEST(Strings, SplitAndPaths) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(join_path("/exports", "vm.vmss"), "/exports/vm.vmss");
  EXPECT_EQ(join_path("/exports/", "vm.vmss"), "/exports/vm.vmss");
  EXPECT_EQ(path_basename("/a/b/c.txt"), "c.txt");
  EXPECT_EQ(path_dirname("/a/b/c.txt"), "/a/b");
  EXPECT_EQ(path_dirname("/a"), "/");
  EXPECT_EQ(path_dirname("plain"), "");
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_TRUE(ends_with("foobar", "bar"));
  EXPECT_FALSE(ends_with("bar", "foobar"));
}

TEST(Flags, ParsesTypedValues) {
  std::string s = "default";
  u64 big = 1;
  u32 small = 2;
  double d = 0.5;
  bool flag = false;
  FlagParser p("test", "test flags");
  p.add_string("name", &s, "a string");
  p.add_u64("big", &big, "a u64");
  p.add_u32("small", &small, "a u32");
  p.add_double("ratio", &d, "a double");
  p.add_bool("verbose", &flag, "a bool");
  const char* argv[] = {"--name=hello", "--big", "1048576", "--small=7",
                        "--ratio=2.5", "--verbose", "positional"};
  ASSERT_TRUE(p.parse(7, argv).is_ok());
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(big, 1048576u);
  EXPECT_EQ(small, 7u);
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_TRUE(flag);
  ASSERT_EQ(p.positionals().size(), 1u);
  EXPECT_EQ(p.positionals()[0], "positional");
}

TEST(Flags, RejectsUnknownAndMalformed) {
  u64 v = 0;
  FlagParser p("test", "test");
  p.add_u64("n", &v, "num");
  {
    const char* argv[] = {"--nope=1"};
    EXPECT_FALSE(p.parse(1, argv).is_ok());
  }
  {
    const char* argv[] = {"--n=abc"};
    EXPECT_FALSE(p.parse(1, argv).is_ok());
  }
  {
    const char* argv[] = {"--n"};
    EXPECT_FALSE(p.parse(1, argv).is_ok());  // missing value
  }
}

TEST(Flags, BoolFormsAndHelp) {
  bool b = true;
  FlagParser p("test", "test");
  p.add_bool("b", &b, "a bool");
  const char* argv[] = {"--b=false", "--help"};
  ASSERT_TRUE(p.parse(2, argv).is_ok());
  EXPECT_FALSE(b);
  EXPECT_TRUE(p.help_requested());
  EXPECT_NE(p.usage().find("--b"), std::string::npos);
}

TEST(Stats, RunningStat) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

namespace {
// This process's resident set size, from /proc/self/status.
long vm_rss_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6)) * 1024;
  }
  return 0;
}

// Inside one HeapReleaseScope, fills `bytes` of 32 KiB heap chunks (below
// glibc's mmap threshold, so they come from the brk heap) and frees them
// all but the highest one, which stays allocated past the scope so glibc's
// own trim of the heap's top cannot return the freed pages. Returns VmRSS
// growth over the start once the scope is gone.
long rss_growth_after_freeing(std::size_t bytes) {
  constexpr std::size_t kChunk = 32 * 1024;
  const long start = vm_rss_bytes();
  std::unique_ptr<char[]> top;
  {
    HeapReleaseScope scope;
    std::vector<std::unique_ptr<char[]>> chunks;
    for (std::size_t filled = 0; filled < bytes; filled += kChunk) {
      chunks.push_back(std::make_unique<char[]>(kChunk));  // zeroed: touched
    }
    auto highest = std::max_element(chunks.begin(), chunks.end(),
                                    [](const auto& a, const auto& b) {
                                      return std::less<>()(a.get(), b.get());
                                    });
    top = std::move(*highest);
  }
  return vm_rss_bytes() - start;
}

bool glibc_malloc_in_use() {
#if !defined(__GLIBC__) || defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return false;
#else
  return true;
#endif
}
}  // namespace

TEST(HeapReleaseScope, LargeFreedHeapGoesBackToTheOs) {
  if (!glibc_malloc_in_use()) GTEST_SKIP() << "the scope trims glibc's heap only";
  EXPECT_LT(rss_growth_after_freeing(96_MiB), 16L << 20);
}

TEST(HeapReleaseScope, SmallFreedHeapKeepsItsPages) {
  if (!glibc_malloc_in_use()) GTEST_SKIP() << "the scope trims glibc's heap only";
  EXPECT_GE(rss_growth_after_freeing(16_MiB), 12L << 20);
}

TEST(MutationEpoch, BumpAdvancesOnlyWhenCheckingIsCompiledIn) {
  MutationEpoch e;
  u64 before = e.value();
  e.bump();
#ifdef GVFS_YIELD_CHECK
  EXPECT_EQ(e.value(), before + 1);
#else
  EXPECT_EQ(e.value(), before);  // zero-cost: compiles to nothing in release
#endif
}

TEST(MutationEpoch, GuardPassesWhenEpochHoldsStill) {
  MutationEpoch e;
  e.bump();
  {
    YieldGuard guard(e);
    // No mutation inside the guarded scope: the dtor assertion must not fire.
  }
  {
    YieldGuard guard(e);
  }
  SUCCEED();
}

#ifdef GVFS_YIELD_CHECK
TEST(MutationEpochDeathTest, GuardFiresOnMutationInsideGuardedScope) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        MutationEpoch e;
        YieldGuard guard(e);
        e.bump();  // simulated yield + structural mutation under the guard
      },
      "analyzer-proven yield-free scope");
}
#endif

}  // namespace
}  // namespace gvfs
