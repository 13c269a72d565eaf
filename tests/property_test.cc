// Property-based tests: randomized operation streams driven through the full
// GVFS stack, checked against a simple reference model. Parameterized over
// seeds, write policies and transfer sizes (TEST_P sweeps).
#include <gtest/gtest.h>

#include "test_util.h"

#include <list>
#include <map>
#include <optional>
#include <unordered_map>

#include "blob/blob.h"
#include "common/hash.h"
#include "common/rng.h"
#include "gvfs/testbed.h"
#include "vfs/buffer_cache.h"
#include "vfs/local_session.h"
#include "vm/vm_cloner.h"
#include "vm/vm_image.h"
#include "vm/vm_monitor.h"
#include "vm/redo_log.h"

namespace gvfs::core {
namespace {

// Reference model: plain byte vectors per path.
struct RefModel {
  std::map<std::string, std::vector<u8>> files;

  void write(const std::string& path, u64 off, const std::vector<u8>& data) {
    auto& f = files[path];
    if (f.size() < off + data.size()) f.resize(off + data.size(), 0);
    std::copy(data.begin(), data.end(), f.begin() + static_cast<long>(off));
  }
  void truncate(const std::string& path, u64 size) { files[path].resize(size, 0); }
};

struct StackParam {
  u64 seed;
  cache::WritePolicy policy;
  u32 rsize;
  u64 cache_bytes;
};

class StackConsistency : public ::testing::TestWithParam<StackParam> {};

TEST_P(StackConsistency, RandomOpsMatchReferenceAndServerConverges) {
  StackParam param = GetParam();
  TestbedOptions opt;
  opt.scenario = Scenario::kWanCached;
  opt.write_policy = param.policy;
  opt.block_cache.capacity_bytes = param.cache_bytes;
  opt.block_cache.num_banks = 8;
  opt.block_cache.associativity = 4;
  opt.net.gvfs_rsize = param.rsize;
  Testbed bed(opt);

  // Pre-install some server-side files.
  SplitMix64 rng(param.seed);
  RefModel ref;
  std::vector<std::string> paths;
  for (int i = 0; i < 4; ++i) {
    std::string path = "/f" + std::to_string(i);
    u64 size = 1_KiB + rng.next_below(200_KiB);
    std::vector<u8> init(size);
    for (auto& b : init) b = static_cast<u8>(rng.next());
    ASSERT_TRUE(bed.image_fs().put_file(bed.image_dir() + path, blob::make_bytes(init)).is_ok());
    ref.files[path] = std::move(init);
    paths.push_back(path);
  }

  bed.kernel().run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(bed.mount(p).is_ok());
    auto& session = bed.image_session();
    for (int op = 0; op < 120; ++op) {
      const std::string& path = paths[rng.next_below(paths.size())];
      u64 fsize = ref.files[path].size();
      switch (rng.next_below(8)) {
        case 0:
        case 1:
        case 2: {  // read a random range and compare against the model
          if (fsize == 0) break;
          u64 off = rng.next_below(fsize);
          u64 len = 1 + rng.next_below(std::min<u64>(fsize - off, 64_KiB));
          auto got = session.read(p, path, off, len);
          ASSERT_TRUE(got.is_ok()) << got.status().to_string();
          std::vector<u8> got_bytes((*got)->size());
          (*got)->read(0, got_bytes);
          std::vector<u8> expect(ref.files[path].begin() + static_cast<long>(off),
                                 ref.files[path].begin() + static_cast<long>(off + got_bytes.size()));
          ASSERT_EQ(got_bytes, expect) << path << " @" << off << "+" << len;
          break;
        }
        case 3:
        case 4:
        case 5: {  // write a random range (may extend)
          u64 off = rng.next_below(fsize + 4_KiB);
          u64 len = 1 + rng.next_below(48_KiB);
          std::vector<u8> data(len);
          for (auto& b : data) b = static_cast<u8>(rng.next());
          ASSERT_TRUE(session.write(p, path, off, blob::make_bytes(data)).is_ok());
          ref.write(path, off, data);
          break;
        }
        case 6: {  // stat: size must match the model
          auto a = session.stat(p, path);
          ASSERT_TRUE(a.is_ok());
          ASSERT_EQ(a->size, ref.files[path].size()) << path;
          break;
        }
        case 7: {  // occasionally flush client staging
          ASSERT_TRUE(session.flush(p).is_ok());
          break;
        }
      }
    }
    // Session end: flush staged writes and run the middleware write-back.
    ASSERT_TRUE(session.flush(p).is_ok());
    ASSERT_TRUE(bed.signal_write_back(p).is_ok());
  });
  ASSERT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();

  // After write-back, the image server must hold exactly the model content.
  for (const auto& [path, expect] : ref.files) {
    auto server = bed.image_fs().get_file(bed.image_dir() + path);
    ASSERT_TRUE(server.is_ok()) << path;
    ASSERT_EQ((*server)->size(), expect.size()) << path;
    std::vector<u8> got((*server)->size());
    (*server)->read(0, got);
    ASSERT_EQ(got, expect) << path;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, StackConsistency,
    ::testing::Values(
        StackParam{1, cache::WritePolicy::kWriteBack, 32_KiB, 64_MiB},
        StackParam{2, cache::WritePolicy::kWriteBack, 8_KiB, 64_MiB},
        StackParam{3, cache::WritePolicy::kWriteBack, 32_KiB, 2_MiB},  // tiny cache: evictions
        StackParam{4, cache::WritePolicy::kWriteThrough, 32_KiB, 64_MiB},
        StackParam{5, cache::WritePolicy::kWriteThrough, 8_KiB, 2_MiB},
        StackParam{6, cache::WritePolicy::kWriteBack, 16_KiB, 8_MiB},
        StackParam{7, cache::WritePolicy::kWriteBack, 32_KiB, 64_MiB},
        StackParam{8, cache::WritePolicy::kWriteThrough, 32_KiB, 64_MiB}),
    [](const ::testing::TestParamInfo<StackParam>& info) {
      return "seed" + std::to_string(info.param.seed) +
             (info.param.policy == cache::WritePolicy::kWriteBack ? "_wb" : "_wt") +
             "_r" + std::to_string(info.param.rsize / 1024) + "k_c" +
             std::to_string(info.param.cache_bytes / 1_MiB) + "m";
    });

// Fault-equivalence property: a write-back stack riding out a seeded outage
// timeline (a partition and, on odd seeds, a server crash; write-backs park
// mid-outage and replay on reconnect) must converge to exactly the server
// bytes a faultless write-through stack produces from the identical op
// stream. Shrinking, non-block-aligned truncates ride along at op boundaries
// clear of the fault windows (a SETATTR is never absorbed); the writes and
// windows are drawn exactly as they are without them.
struct FaultOp {
  SimDuration gap = 0;  // virtual-time delay before the op
  int file = 0;
  u64 offset = 0;  // block-aligned: full-block writes never fetch upstream
  u64 len = 0;
  u64 fill_seed = 0;
  bool flush = false;     // flush the client instead of writing
  bool truncate = false;  // truncate the file to `len` instead of writing
};

// A truncate keeps this far from every fault window (by its nominal time),
// and at most one follows every kCutSpacing ops of the write stream.
constexpr SimDuration kClear = 5 * kSecond;
constexpr int kCutSpacing = 6;

void check_fault_equivalence(u64 seed, bool async_writeback) {
  SplitMix64 rng(seed);

  // Pre-generate initial images and the op stream so both stacks consume
  // byte-identical inputs regardless of how their timelines diverge.
  std::vector<std::vector<u8>> init(3);
  for (auto& f : init) {
    f.resize(64_KiB + rng.next_below(160_KiB));
    for (auto& b : f) b = static_cast<u8>(rng.next());
  }
  std::vector<FaultOp> writes;
  for (int i = 0; i < 48; ++i) {
    FaultOp op;
    op.gap = (500 + rng.next_below(2000)) * kMillisecond;
    op.file = static_cast<int>(rng.next_below(init.size()));
    op.flush = rng.next_below(6) == 0;
    u64 blocks = (init[op.file].size() + 32_KiB - 1) / 32_KiB;
    op.offset = rng.next_below(blocks + 1) * 32_KiB;  // may extend the file
    op.len = (1 + rng.next_below(3)) * 32_KiB;
    op.fill_seed = rng.next();
    writes.push_back(op);
  }
  // Ops span roughly [0, 72] s: one partition mid-run; odd seeds also crash
  // the server (rebooting rolls the write verifier, so a flush caught
  // between its UNSTABLE writes and COMMIT re-sends the file).
  u64 part_start = 10 + rng.next_below(15);
  u64 part_len = 15 + rng.next_below(20);
  std::vector<sim::FaultWindow> windows{
      {static_cast<SimTime>(part_start * kSecond),
       static_cast<SimTime>((part_start + part_len) * kSecond)}};
  if (seed % 2 == 1) {
    windows.push_back({static_cast<SimTime>((part_start + part_len + 10) * kSecond),
                       static_cast<SimTime>((part_start + part_len + 18) * kSecond)});
  }
  // Whether a truncate starting at `t` keeps kClear (its RPC retries
  // included) on both sides of every window.
  auto clear_of_faults = [&](SimTime t) {
    return std::none_of(windows.begin(), windows.end(), [t](const sim::FaultWindow& w) {
      return t + kClear > w.start && t < w.end + kClear;
    });
  };

  // Truncates draw from their own stream. A cut follows the write stream's
  // op at most once every kCutSpacing ops, only where the op's nominal time
  // (the running sum of gaps) is clear of the windows; it cuts a random
  // file into its second half, never on a block boundary.
  SplitMix64 cut_rng(seed ^ 0x7472756e63ULL);  // "trunc"
  std::vector<u64> sizes;
  for (const auto& f : init) sizes.push_back(f.size());
  std::vector<FaultOp> ops;
  SimTime nominal = 0;
  int since_cut = 0;
  for (const FaultOp& op : writes) {
    ops.push_back(op);
    nominal += op.gap;
    if (!op.flush) sizes[op.file] = std::max(sizes[op.file], op.offset + op.len);
    if (++since_cut < kCutSpacing || !clear_of_faults(nominal)) continue;
    since_cut = 0;
    FaultOp cut;
    cut.file = static_cast<int>(cut_rng.next_below(init.size()));
    u64& size = sizes[cut.file];
    cut.len = size / 2 + cut_rng.next_below(size - size / 2);
    if (cut.len % 32_KiB == 0) --cut.len;
    cut.truncate = true;
    size = cut.len;
    ops.push_back(cut);
  }
  const auto cuts = std::count_if(ops.begin(), ops.end(),
                                  [](const FaultOp& op) { return op.truncate; });
  EXPECT_GE(cuts, 2) << "seed " << seed;

  auto run_stack = [&](bool faulty) {
    TestbedOptions opt;
    opt.scenario = Scenario::kWanCached;
    opt.generate_image_meta = false;
    // Eight frames for ~30 blocks of file data: evictions feed write-back
    // throughout the run, the outage included.
    opt.block_cache.capacity_bytes = 256_KiB;
    opt.block_cache.num_banks = 4;
    opt.block_cache.associativity = 4;
    if (faulty) {
      opt.write_policy = cache::WritePolicy::kWriteBack;
      opt.enable_async_writeback = async_writeback;
      opt.enable_fault_injection = true;
      opt.degraded_proxy = true;
      opt.fault_seed = seed;
      opt.fault.partitions.push_back(windows[0]);
      if (windows.size() > 1) opt.fault.crashes.push_back(windows[1]);
      opt.retry.timeout = 250 * kMillisecond;
      opt.retry.max_retransmits = 2;  // soft mount: kTimeout reaches the proxy
    } else {
      opt.write_policy = cache::WritePolicy::kWriteThrough;
    }
    Testbed bed(opt);
    for (std::size_t i = 0; i < init.size(); ++i) {
      EXPECT_TRUE(bed.image_fs()
                      .put_file(bed.image_dir() + "/f" + std::to_string(i),
                                blob::make_bytes(init[i]))
                      .is_ok());
    }
    bed.kernel().run_process("ops", [&](sim::Process& p) {
      ASSERT_TRUE(bed.mount(p).is_ok());
      auto& session = bed.image_session();
      // Learn every name and attribute before the first fault window opens:
      // a proxy can only serve degraded LOOKUP/GETATTR for files it has seen.
      for (std::size_t i = 0; i < init.size(); ++i) {
        ASSERT_TRUE(session.stat(p, "/f" + std::to_string(i)).is_ok());
      }
      for (const FaultOp& op : ops) {
        p.delay(op.gap);
        std::string path = "/f" + std::to_string(op.file);
        if (op.flush) {
          ASSERT_TRUE(session.flush(p).is_ok());
          continue;
        }
        if (op.truncate) {
          // The faulty stack runs late of the nominal timeline while
          // write-backs retry through an outage, which only moves a cut
          // further past the windows behind it.
          EXPECT_TRUE(!faulty || clear_of_faults(p.now()))
              << "truncate at " << p.now() / kMillisecond << " ms runs into a fault window";
          Status tst = session.truncate(p, path, op.len);
          ASSERT_TRUE(tst.is_ok()) << path << " to " << op.len << ": " << tst.to_string();
          continue;
        }
        std::vector<u8> data(op.len);
        SplitMix64 fill(op.fill_seed);
        for (auto& b : data) b = static_cast<u8>(fill.next());
        Status wst = session.write(p, path, op.offset, blob::make_bytes(data));
        ASSERT_TRUE(wst.is_ok()) << path << " @" << op.offset << ": " << wst.to_string();
      }
      // Quiesce past every fault window, reconnect, and drain everything.
      p.delay_until(150 * kSecond);
      if (faulty) {
        ASSERT_TRUE(bed.client_proxy()->signal_reconnect(p).is_ok());
      }
      ASSERT_TRUE(session.flush(p).is_ok());
      ASSERT_TRUE(bed.signal_write_back(p).is_ok());
    });
    EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();
    if (faulty) {
      // The outage really exercised degraded parking and the replay.
      EXPECT_GT(bed.client_proxy()->queued_writebacks(), 0u);
      EXPECT_GT(bed.client_proxy()->replayed_writebacks(), 0u);
      EXPECT_EQ(bed.client_proxy()->pending_writebacks(), 0u);
      EXPECT_EQ(bed.client_proxy()->pending_flush_blocks(), 0u);
    }
    std::vector<std::vector<u8>> out(init.size());
    for (std::size_t i = 0; i < init.size(); ++i) {
      auto f = bed.image_fs().get_file(bed.image_dir() + "/f" + std::to_string(i));
      EXPECT_TRUE(f.is_ok());
      out[i].resize((*f)->size());
      (*f)->read(0, out[i]);
    }
    return out;
  };

  std::vector<std::vector<u8>> faulty = run_stack(true);
  std::vector<std::vector<u8>> clean = run_stack(false);
  for (std::size_t i = 0; i < init.size(); ++i) {
    ASSERT_EQ(faulty[i].size(), clean[i].size()) << "/f" << i;
    ASSERT_EQ(faulty[i], clean[i]) << "/f" << i;
  }
}

class FaultEquivalence : public ::testing::TestWithParam<u64> {};

TEST_P(FaultEquivalence, AsyncWritebackUnderFaultsMatchesWriteThrough) {
  check_fault_equivalence(GetParam(), /*async_writeback=*/true);
}

TEST_P(FaultEquivalence, SyncWritebackUnderFaultsMatchesWriteThrough) {
  check_fault_equivalence(GetParam(), /*async_writeback=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultEquivalence,
                         ::testing::Values(11, 12, 13, 14, 15, 16),
                         [](const ::testing::TestParamInfo<u64>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// Sharded-equivalence property: a 3-shard / 2-replica origin cluster riding
// out seeded per-server crash windows (async write-back, degraded proxy,
// quorum writes with failover + journal resync) must converge — on EVERY
// replica of each file's shard — to exactly the bytes a single faultless
// write-through origin produces from the identical op stream.
class ShardedEquivalence : public ::testing::TestWithParam<u64> {};

TEST_P(ShardedEquivalence, ClusterUnderCrashesMatchesSingleFaultlessOrigin) {
  const u64 seed = GetParam();
  SplitMix64 rng(seed);

  std::vector<std::vector<u8>> init(3);
  for (auto& f : init) {
    f.resize(64_KiB + rng.next_below(128_KiB));
    for (auto& b : f) b = static_cast<u8>(rng.next());
  }
  std::vector<FaultOp> ops;
  for (int i = 0; i < 48; ++i) {
    FaultOp op;
    op.gap = (500 + rng.next_below(2000)) * kMillisecond;
    op.file = static_cast<int>(rng.next_below(init.size()));
    op.flush = rng.next_below(6) == 0;
    u64 blocks = (init[static_cast<std::size_t>(op.file)].size() + 32_KiB - 1) / 32_KiB;
    op.offset = rng.next_below(blocks + 1) * 32_KiB;  // may extend the file
    op.len = (1 + rng.next_below(3)) * 32_KiB;
    op.fill_seed = rng.next();
    ops.push_back(op);
  }
  // Two per-server crash windows inside the op span: distinct victims so two
  // different shard neighbourhoods fail over within one run.
  int victim_a = static_cast<int>(rng.next_below(3));
  int victim_b = (victim_a + 1 + static_cast<int>(rng.next_below(2))) % 3;
  u64 crash_a = 8 + rng.next_below(10);
  u64 crash_b = 40 + rng.next_below(12);

  auto run_stack = [&](bool cluster_faulty) {
    TestbedOptions opt;
    opt.scenario = Scenario::kWanCached;
    opt.generate_image_meta = false;
    opt.block_cache.capacity_bytes = 1_MiB;  // tiny: evictions feed the flusher
    opt.block_cache.num_banks = 4;
    opt.block_cache.associativity = 4;
    if (cluster_faulty) {
      opt.origin_cluster = true;
      opt.origin_shards = 3;
      opt.origin_replicas = 2;
      opt.write_policy = cache::WritePolicy::kWriteBack;
      opt.enable_async_writeback = true;
      opt.enable_fault_injection = true;
      opt.degraded_proxy = true;
      opt.fault_seed = seed;
      opt.fault.crashes.push_back(
          sim::FaultWindow{static_cast<SimTime>(crash_a) * kSecond,
                           static_cast<SimTime>(crash_a + 8) * kSecond, victim_a});
      opt.fault.crashes.push_back(
          sim::FaultWindow{static_cast<SimTime>(crash_b) * kSecond,
                           static_cast<SimTime>(crash_b + 8) * kSecond, victim_b});
      opt.retry.timeout = 250 * kMillisecond;
      opt.retry.max_retransmits = 2;  // soft mount: kTimeout reaches the router
    } else {
      opt.write_policy = cache::WritePolicy::kWriteThrough;
    }
    Testbed bed(opt);
    for (std::size_t i = 0; i < init.size(); ++i) {
      EXPECT_TRUE(
          bed.put_image_file("/f" + std::to_string(i), blob::make_bytes(init[i]))
              .is_ok());
    }
    bed.kernel().run_process("ops", [&](sim::Process& p) {
      ASSERT_TRUE(bed.mount(p).is_ok());
      auto& session = bed.image_session();
      for (std::size_t i = 0; i < init.size(); ++i) {
        ASSERT_TRUE(session.stat(p, "/f" + std::to_string(i)).is_ok());
      }
      for (const FaultOp& op : ops) {
        p.delay(op.gap);
        std::string path = "/f" + std::to_string(op.file);
        if (op.flush) {
          ASSERT_TRUE(session.flush(p).is_ok());
          continue;
        }
        std::vector<u8> data(op.len);
        SplitMix64 fill(op.fill_seed);
        for (auto& b : data) b = static_cast<u8>(fill.next());
        Status wst = session.write(p, path, op.offset, blob::make_bytes(data));
        ASSERT_TRUE(wst.is_ok()) << path << " @" << op.offset << ": " << wst.to_string();
      }
      // Quiesce past every crash window, reconnect, drain, and force the
      // router to reintegrate dead origins + replay their journals.
      p.delay_until(150 * kSecond);
      if (cluster_faulty) {
        ASSERT_TRUE(bed.client_proxy()->signal_reconnect(p).is_ok());
      }
      ASSERT_TRUE(session.flush(p).is_ok());
      ASSERT_TRUE(bed.signal_write_back(p).is_ok());
      if (cluster_faulty) bed.shard_router()->resync(p);
    });
    EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();
    if (cluster_faulty) {
      EXPECT_EQ(bed.client_proxy()->pending_writebacks(), 0u);
      EXPECT_EQ(bed.client_proxy()->pending_flush_blocks(), 0u);
      for (u32 j = 0; j < bed.origin_count(); ++j) {
        EXPECT_TRUE(bed.shard_router()->origin_live(j)) << "origin " << j;
        EXPECT_EQ(bed.shard_router()->journal_size(j), 0u) << "origin " << j;
      }
    }
    // Collect each file's bytes — from every replica of its home shard in
    // cluster mode (they must agree with each other), else from the single
    // origin.
    std::vector<std::vector<u8>> out(init.size());
    for (std::size_t i = 0; i < init.size(); ++i) {
      std::string abs = bed.image_dir() + "/f" + std::to_string(i);
      if (!cluster_faulty) {
        auto f = bed.image_fs().get_file(abs);
        EXPECT_TRUE(f.is_ok());
        out[i].resize((*f)->size());
        (*f)->read(0, out[i]);
        continue;
      }
      auto id = bed.origin_fs(0).resolve(abs);
      EXPECT_TRUE(id.is_ok()) << abs;
      if (!id.is_ok()) continue;
      u32 shard = bed.shard_router()->shard_of(bed.origin_server(0)->fh_of(*id));
      bool first = true;
      for (u32 j : bed.shard_router()->replicas_of(shard)) {
        auto f = bed.origin_fs(static_cast<int>(j)).get_file(abs);
        EXPECT_TRUE(f.is_ok()) << abs << " origin " << j;
        std::vector<u8> got((*f)->size());
        (*f)->read(0, got);
        if (first) {
          out[i] = std::move(got);
          first = false;
        } else {
          EXPECT_EQ(got, out[i]) << abs << ": replica " << j << " diverged";
        }
      }
    }
    return out;
  };

  std::vector<std::vector<u8>> cluster = run_stack(true);
  std::vector<std::vector<u8>> clean = run_stack(false);
  for (std::size_t i = 0; i < init.size(); ++i) {
    ASSERT_EQ(cluster[i].size(), clean[i].size()) << "/f" << i;
    ASSERT_EQ(cluster[i], clean[i]) << "/f" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedEquivalence,
                         ::testing::Values(21, 22, 23, 24),
                         [](const ::testing::TestParamInfo<u64>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// Monotonicity property: enlarging the proxy cache never makes a re-read
// workload slower (same seed, same ops).
class CacheSizeMonotonic : public ::testing::TestWithParam<u64> {};

TEST_P(CacheSizeMonotonic, RereadTimeDecreasesWithCache) {
  u64 cache_bytes = GetParam();
  TestbedOptions opt;
  opt.scenario = Scenario::kWanCached;
  opt.block_cache.capacity_bytes = cache_bytes;
  opt.block_cache.num_banks = 8;
  Testbed bed(opt);
  ASSERT_TRUE(
      bed.image_fs().put_file(bed.image_dir() + "/data", blob::make_synthetic(9, 4_MiB, 0, 2.0)).is_ok());
  double reread_s = 0;
  bed.kernel().run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(bed.mount(p).is_ok());
    ASSERT_OK(bed.image_session().read_all(p, "/data"));
    bed.nfs_client()->drop_caches();
    SimTime t0 = p.now();
    ASSERT_OK(bed.image_session().read_all(p, "/data"));
    reread_s = to_seconds(p.now() - t0);
  });
  ASSERT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();
  // Record into a static map and assert monotonicity across the sweep
  // (params run smallest-to-largest).
  static std::map<u64, double> results;
  for (const auto& [size, secs] : results) {
    if (size < cache_bytes) {
      EXPECT_LE(reread_s, secs * 1.05) << "cache " << cache_bytes << " vs " << size;
    }
  }
  results[cache_bytes] = reread_s;
}

INSTANTIATE_TEST_SUITE_P(Sizes, CacheSizeMonotonic,
                         ::testing::Values(1_MiB, 2_MiB, 4_MiB, 8_MiB, 16_MiB),
                         [](const ::testing::TestParamInfo<u64>& info) {
                           return std::to_string(info.param / 1_MiB) + "MiB";
                         });

// Redo-log property: random grain-aligned writes through a VM monitor with a
// redo log read back exactly like a reference overlay, and the base image
// never changes.
class RedoLogProperty : public ::testing::TestWithParam<u64> {};

TEST_P(RedoLogProperty, OverlaySemanticsMatchReference) {
  u64 seed = GetParam();
  sim::SimKernel kernel;
  vfs::MemFs fs;
  sim::DiskModel disk{kernel, "d", sim::DiskConfig{}};
  vfs::LocalFsSession session{fs, disk};
  vm::VmImageSpec spec;
  spec.memory_bytes = 2_MiB;
  spec.disk_bytes = 16_MiB;
  spec.seed = seed;
  auto paths = vm::install_image(fs, "/images", spec);
  ASSERT_TRUE(paths.is_ok());

  // Reference overlay: base content + byte map of writes.
  std::vector<u8> ref(16_MiB);
  vm::disk_blob(spec)->read(0, ref);
  u64 base_hash_before = blob::content_hash(*vm::disk_blob(spec));

  kernel.run_process("t", [&](sim::Process& p) {
    vm::VmMonitor vm;
    vm.attach(session, paths->cfg(), paths->vmss(), session, paths->flat_vmdk());
    auto redo = std::make_unique<vm::RedoLog>(session, "/r.redo");
    ASSERT_TRUE(redo->create(p).is_ok());
    vm.enable_redo_log(std::move(redo));

    SplitMix64 rng(seed * 31 + 1);
    for (int op = 0; op < 120; ++op) {
      bool is_write = rng.next_double() < 0.5;
      u64 grain = rng.next_below(16_MiB / 4_KiB);
      u64 off = grain * 4_KiB;
      u64 len = (1 + rng.next_below(4)) * 4_KiB;
      len = std::min<u64>(len, 16_MiB - off);
      if (is_write) {
        std::vector<u8> data(len);
        for (auto& b : data) b = static_cast<u8>(rng.next());
        ASSERT_TRUE(vm.disk_write(p, off, blob::make_bytes(data)).is_ok());
        std::copy(data.begin(), data.end(), ref.begin() + static_cast<long>(off));
      } else {
        auto got = vm.disk_read(p, off, len);
        ASSERT_TRUE(got.is_ok());
        std::vector<u8> got_bytes(len);
        (*got)->read(0, got_bytes);
        std::vector<u8> expect(ref.begin() + static_cast<long>(off),
                               ref.begin() + static_cast<long>(off + len));
        ASSERT_EQ(got_bytes, expect) << "op " << op << " off " << off;
      }
      if (op % 25 == 0) {
        ASSERT_TRUE(vm.sync(p).is_ok());
        if (op % 50 == 0) vm.guest_cache().drop_all();  // force redo reads
      }
    }
  });
  ASSERT_EQ(kernel.failed_processes(), 0) << kernel.failed_names_joined();
  // The golden image is untouched (non-persistent semantics).
  EXPECT_EQ(blob::content_hash(**fs.get_file(paths->flat_vmdk())), base_hash_before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RedoLogProperty, ::testing::Values(1, 2, 3, 4),
                         [](const ::testing::TestParamInfo<u64>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// Determinism property: the same parallel topology run twice gives the exact
// same virtual end time (the DES tie-breaks deterministically).
TEST(Determinism, ParallelClonesBitExact) {
  auto run_once = [] {
    TestbedOptions opt;
    opt.scenario = Scenario::kWanCached;
    opt.compute_nodes = 3;
    opt.block_cache.capacity_bytes = 128_MiB;
    Testbed bed(opt);
    std::vector<vm::VmImagePaths> images;
    for (int i = 0; i < 3; ++i) {
      vm::VmImageSpec spec;
      spec.name = "vm" + std::to_string(i);
      spec.seed = 7 + static_cast<u64>(i);
      spec.memory_bytes = 4_MiB;
      spec.disk_bytes = 32_MiB;
      images.push_back(*bed.install_image(spec));
    }
    for (int i = 0; i < 3; ++i) {
      bed.kernel().spawn("c" + std::to_string(i), [&bed, &images, i](sim::Process& p) {
        ASSERT_TRUE(bed.mount(p, i).is_ok());
        vm::CloneConfig cfg;
        cfg.image = images[static_cast<size_t>(i)];
        cfg.clone_dir = "/clones/x";
        ASSERT_TRUE(
            vm::VmCloner::clone(p, bed.image_session(i), bed.local_session(i), cfg).is_ok());
      });
    }
    return bed.kernel().run();
  };
  SimTime a = run_once();
  SimTime b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 0);
}

// ---- cache index equivalence ------------------------------------------------
// The per-file frame index (file_head_ + intrusive lists + running
// resident_bytes_ gauge) is a pure indexing change: every observable —
// hit/miss results, eviction victims, writeback order, counters,
// resident_bytes, per-file residency — must match the old-style structure
// that answered those queries with linear scans. RefCache is that old
// structure: same set mapping, same LRU, no index, all queries O(capacity).

struct WbEvent {
  u64 file_key;
  u64 block;
  u64 size;
  bool operator==(const WbEvent& o) const {
    return file_key == o.file_key && block == o.block && size == o.size;
  }
};

class RefCache {
 public:
  explicit RefCache(const cache::BlockCacheConfig& cfg) : cfg_(cfg) {
    u64 total = std::max<u64>(cfg_.associativity, cfg_.capacity_bytes / cfg_.block_size);
    num_sets_ = static_cast<u32>(std::max<u64>(1, total / cfg_.associativity));
    frames_.resize(static_cast<std::size_t>(num_sets_) * cfg_.associativity);
  }

  bool lookup(const cache::BlockId& id) {
    Frame* f = find_(id);
    if (f == nullptr) {
      ++misses;
      return false;
    }
    ++hits;
    f->last_used = ++tick_;
    return true;
  }

  void insert(const cache::BlockId& id, u64 size, bool dirty) {
    if (cfg_.policy == cache::WritePolicy::kWriteThrough && dirty) {
      ++writebacks;
      log.push_back({id.file_key, id.block, size});
      dirty = false;
    }
    Frame* base = &frames_[static_cast<std::size_t>(set_index_(id)) * cfg_.associativity];
    Frame* slot = nullptr;
    for (u32 w = 0; w < cfg_.associativity; ++w) {
      if (base[w].valid && base[w].id == id) {
        slot = &base[w];
        break;
      }
    }
    if (slot == nullptr) {
      for (u32 w = 0; w < cfg_.associativity; ++w) {
        if (!base[w].valid) {
          slot = &base[w];
          break;
        }
      }
      if (slot == nullptr) {
        slot = base;
        for (u32 w = 1; w < cfg_.associativity; ++w) {
          if (base[w].last_used < slot->last_used) slot = &base[w];
        }
        evict_(*slot);
      }
      ++resident;
    } else if (slot->dirty && !dirty) {
      --dirty_blocks;
      slot->dirty = false;
    }
    slot->valid = true;
    slot->id = id;
    slot->size = size;
    slot->last_used = ++tick_;
    if (dirty && !slot->dirty) {
      slot->dirty = true;
      ++dirty_blocks;
    }
  }

  bool merge(const cache::BlockId& id, u64 offset_in_block, u64 size) {
    Frame* f = find_(id);
    if (f == nullptr) return false;
    f->size = std::max(f->size, offset_in_block + size);
    f->last_used = ++tick_;
    if (!f->dirty) {
      f->dirty = true;
      ++dirty_blocks;
    }
    return true;
  }

  void write_back_all() {
    for (Frame& f : frames_) {
      if (f.valid && f.dirty) {
        ++writebacks;
        log.push_back({f.id.file_key, f.id.block, f.size});
        f.dirty = false;
        --dirty_blocks;
      }
    }
  }

  void invalidate_file(u64 file_key) {
    // Old style: full linear scan of every frame.
    for (Frame& f : frames_) {
      if (f.valid && f.id.file_key == file_key) {
        if (f.dirty) --dirty_blocks;
        f.valid = false;
        f.dirty = false;
        f.size = 0;
        --resident;
      }
    }
  }

  [[nodiscard]] bool contains(const cache::BlockId& id) const {
    for (const Frame& f : frames_) {
      if (f.valid && f.id == id) return true;
    }
    return false;
  }

  [[nodiscard]] u64 resident_bytes() const {
    u64 total = 0;
    for (const Frame& f : frames_) {
      if (f.valid) total += f.size;
    }
    return total;
  }

  [[nodiscard]] u64 file_resident_blocks(u64 file_key) const {
    u64 n = 0;
    for (const Frame& f : frames_) {
      if (f.valid && f.id.file_key == file_key) ++n;
    }
    return n;
  }

  u64 hits = 0, misses = 0, evictions = 0, writebacks = 0;
  u64 dirty_blocks = 0, resident = 0;
  std::vector<WbEvent> log;

 private:
  struct Frame {
    bool valid = false;
    bool dirty = false;
    cache::BlockId id;
    u64 size = 0;
    u64 last_used = 0;
  };

  [[nodiscard]] u32 set_index_(const cache::BlockId& id) const {
    return static_cast<u32>((mix64(id.file_key) + id.block) % num_sets_);
  }

  Frame* find_(const cache::BlockId& id) {
    Frame* base = &frames_[static_cast<std::size_t>(set_index_(id)) * cfg_.associativity];
    for (u32 w = 0; w < cfg_.associativity; ++w) {
      if (base[w].valid && base[w].id == id) return &base[w];
    }
    return nullptr;
  }

  void evict_(Frame& victim) {
    ++evictions;
    if (victim.dirty) {
      ++writebacks;
      --dirty_blocks;
      log.push_back({victim.id.file_key, victim.id.block, victim.size});
    }
    victim.valid = false;
    victim.dirty = false;
    victim.size = 0;
    --resident;
  }

  cache::BlockCacheConfig cfg_;
  u32 num_sets_ = 0;
  std::vector<Frame> frames_;
  u64 tick_ = 0;
};

struct IndexParam {
  u64 seed;
  cache::WritePolicy policy;
};

class CacheIndexEquivalence : public ::testing::TestWithParam<IndexParam> {};

TEST_P(CacheIndexEquivalence, RandomOpsMatchLinearScanReference) {
  IndexParam param = GetParam();
  sim::SimKernel kernel;
  sim::DiskConfig dcfg;
  dcfg.seek = 0;
  dcfg.seq_overhead = 0;
  dcfg.bytes_per_sec = 1e15;
  sim::DiskModel disk(kernel, "d", dcfg);

  cache::BlockCacheConfig cfg;
  cfg.capacity_bytes = 128_KiB;  // 32 frames: evictions happen constantly
  cfg.block_size = 4_KiB;
  cfg.num_banks = 2;
  cfg.associativity = 4;
  cfg.policy = param.policy;
  cache::ProxyDiskCache cache(disk, cfg);

  std::vector<WbEvent> real_log;
  cache.set_writeback([&](sim::Process&, const cache::BlockId& id,
                          const blob::BlobRef& data) {
    real_log.push_back({id.file_key, id.block, data ? data->size() : 0});
    return Status::ok();
  });
  RefCache ref(cfg);

  constexpr u64 kFiles = 6;
  constexpr u64 kBlocks = 24;
  kernel.run_process("replay", [&](sim::Process& p) {
    SplitMix64 rng(param.seed);
    for (int op = 0; op < 3000; ++op) {
      cache::BlockId id{1000 + rng.next_below(kFiles), rng.next_below(kBlocks)};
      switch (rng.next_below(10)) {
        case 0:
        case 1:
        case 2:
        case 3: {  // insert, sometimes dirty, varying payload size
          u64 size = 1 + rng.next_below(cfg.block_size);
          bool dirty = rng.next_below(2) == 0;
          ASSERT_TRUE(cache.insert(p, id, blob::make_zero(size), dirty).is_ok());
          ref.insert(id, size, dirty);
          break;
        }
        case 4:
        case 5:
        case 6: {  // lookup
          bool hit = cache.lookup(p, id).has_value();
          EXPECT_EQ(hit, ref.lookup(id)) << "op " << op;
          break;
        }
        case 7: {  // partial-block merge on a (maybe) present block
          u64 off = rng.next_below(cfg.block_size / 2);
          u64 len = 1 + rng.next_below(cfg.block_size - off);
          auto merged = cache.merge(p, id, off, blob::make_zero(len));
          EXPECT_EQ(merged.is_ok(), ref.merge(id, off, len)) << "op " << op;
          break;
        }
        case 8: {  // invalidate one file
          cache.invalidate_file(id.file_key);
          ref.invalidate_file(id.file_key);
          break;
        }
        case 9: {  // occasionally flush everything
          if (rng.next_below(4) == 0) {
            ASSERT_TRUE(cache.write_back_all(p).is_ok());
            ref.write_back_all();
          }
          break;
        }
      }
      // Counters must track the reference exactly, op for op.
      ASSERT_EQ(cache.hits(), ref.hits) << "op " << op;
      ASSERT_EQ(cache.misses(), ref.misses) << "op " << op;
      ASSERT_EQ(cache.evictions(), ref.evictions) << "op " << op;
      ASSERT_EQ(cache.writebacks(), ref.writebacks) << "op " << op;
      ASSERT_EQ(cache.dirty_blocks(), ref.dirty_blocks) << "op " << op;
      ASSERT_EQ(cache.resident_blocks(), ref.resident) << "op " << op;
      ASSERT_EQ(cache.resident_bytes(), ref.resident_bytes()) << "op " << op;
      ASSERT_EQ(real_log.size(), ref.log.size()) << "op " << op;
      if (op % 100 == 0) {
        for (u64 f = 0; f < kFiles; ++f) {
          EXPECT_EQ(cache.file_resident_blocks(1000 + f),
                    ref.file_resident_blocks(1000 + f))
              << "op " << op << " file " << f;
        }
        cache::BlockId probe{1000 + rng.next_below(kFiles), rng.next_below(kBlocks)};
        EXPECT_EQ(cache.contains(probe), ref.contains(probe)) << "op " << op;
      }
    }
    // The full writeback sequences — order included — must be identical.
    ASSERT_EQ(real_log.size(), ref.log.size());
    for (std::size_t i = 0; i < real_log.size(); ++i) {
      EXPECT_EQ(real_log[i], ref.log[i]) << "event " << i;
    }
    // Drain: everything dirty goes upstream, nothing left behind.
    ASSERT_TRUE(cache.write_back_all(p).is_ok());
    cache.invalidate_all();
    EXPECT_EQ(cache.dirty_blocks(), 0u);
    EXPECT_EQ(cache.resident_blocks(), 0u);
    EXPECT_EQ(cache.resident_bytes(), 0u);
    for (u64 f = 0; f < kFiles; ++f) {
      EXPECT_EQ(cache.file_resident_blocks(1000 + f), 0u);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPolicies, CacheIndexEquivalence,
    ::testing::Values(IndexParam{11, cache::WritePolicy::kWriteBack},
                      IndexParam{12, cache::WritePolicy::kWriteBack},
                      IndexParam{13, cache::WritePolicy::kWriteThrough},
                      IndexParam{14, cache::WritePolicy::kWriteThrough}),
    [](const auto& info) {
      return std::string(info.param.policy == cache::WritePolicy::kWriteBack ? "wb"
                                                                             : "wt") +
             std::to_string(info.param.seed);
    });

// ---------------------------------------------------- BufferCacheEquivalence --
//
// The flat slab + open-addressing vfs::BufferCache must be observably identical
// to the std::list + std::unordered_map cache it replaced: same return values,
// same LRU victims, same counters, same writeback sequence. Its clean pages
// filled by insert_block() are views of the block; the reference holds them
// as one SliceBlob per page, so they compare by bytes and length.

// The replaced list + map cache, kept as the reference.
class RefBufferCache {
 public:
  RefBufferCache(u64 capacity_pages, u64 page_size)
      : capacity_pages_(capacity_pages), page_size_(page_size) {}

  void set_writeback(vfs::BufferCache::WritebackFn fn) { writeback_ = std::move(fn); }

  std::optional<blob::BlobRef> lookup(u64 file, u64 page) {
    auto it = map_.find(Key{file, page});
    if (it == map_.end()) {
      ++misses;
      return std::nullopt;
    }
    ++hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->data;
  }

  void insert(sim::Process& p, u64 file, u64 page, blob::BlobRef data, bool dirty) {
    Key key{file, page};
    auto it = map_.find(key);
    if (it != map_.end()) {
      if (it->second->dirty && !dirty) {
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
      }
      if (dirty && !it->second->dirty) ++dirty_pages;
      it->second->data = std::move(data);
      it->second->dirty = dirty;
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    while (map_.size() >= capacity_pages_) evict_one_(p);
    lru_.push_front(Entry{key, std::move(data), dirty});
    map_.emplace(key, lru_.begin());
    if (dirty) ++dirty_pages;
  }

  void insert_block(sim::Process& p, u64 file, u64 first_page, const blob::BlobRef& block) {
    for (u64 off = 0; off < block->size(); off += page_size_) {
      u64 n = std::min(page_size_, block->size() - off);
      insert(p, file, first_page + off / page_size_,
             std::make_shared<blob::SliceBlob>(block, off, n), false);
    }
  }

  void mark_clean(u64 file, u64 page, const blob::BlobRef& written) {
    auto it = map_.find(Key{file, page});
    if (it != map_.end() && it->second->dirty && it->second->data == written) {
      it->second->dirty = false;
      --dirty_pages;
    }
  }

  u64 flush(sim::Process& p, u64 file) {
    std::vector<std::pair<Key, blob::BlobRef>> dirty;
    for (const Entry& e : lru_) {
      if (e.dirty && (file == 0 || e.key.file == file)) dirty.emplace_back(e.key, e.data);
    }
    std::sort(dirty.begin(), dirty.end(), [](const auto& a, const auto& b) {
      return a.first.file != b.first.file ? a.first.file < b.first.file
                                          : a.first.page < b.first.page;
    });
    for (auto& [key, data] : dirty) {
      if (writeback_) writeback_(p, key.file, key.page, data);
      mark_clean(key.file, key.page, data);
    }
    return dirty.size();
  }

  [[nodiscard]] std::vector<std::pair<u64, blob::BlobRef>> dirty_pages_of(u64 file) const {
    std::vector<std::pair<u64, blob::BlobRef>> out;
    for (const Entry& e : lru_) {
      if (e.dirty && e.key.file == file) out.emplace_back(e.key.page, e.data);
    }
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return out;
  }

  void invalidate_file(sim::Process& p, u64 file) {
    flush(p, file);
    discard_file(file);
  }

  void discard_file(u64 file, u64 from = 0) {
    for (auto it = lru_.begin(); it != lru_.end();) {
      const u64 start = it->key.page * page_size_;
      if (it->key.file == file && start >= from) {
        if (it->dirty) --dirty_pages;
        map_.erase(it->key);
        it = lru_.erase(it);
        continue;
      }
      if (it->key.file == file && start + it->data->size() > from) {
        it->data = std::make_shared<blob::SliceBlob>(it->data, 0, from - start);
      }
      ++it;
    }
  }

  [[nodiscard]] std::vector<u64> dirty_files() const {
    std::vector<u64> out;
    for (const Entry& e : lru_) {
      if (e.dirty && std::find(out.begin(), out.end(), e.key.file) == out.end()) {
        out.push_back(e.key.file);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  void drop_all() {
    lru_.clear();
    map_.clear();
    dirty_pages = 0;
  }

  [[nodiscard]] bool contains(u64 file, u64 page) const {
    return map_.count(Key{file, page}) != 0;
  }
  [[nodiscard]] u64 resident_pages() const { return map_.size(); }

  u64 hits = 0, misses = 0, evictions = 0, dirty_pages = 0;

 private:
  struct Key {
    u64 file;
    u64 page;
    bool operator==(const Key& o) const { return file == o.file && page == o.page; }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(hash_combine(k.file, k.page));
    }
  };
  struct Entry {
    Key key;
    blob::BlobRef data;
    bool dirty = false;
  };
  using LruList = std::list<Entry>;

  void evict_one_(sim::Process& p) {
    Entry& victim = lru_.back();
    if (victim.dirty) {
      if (writeback_) writeback_(p, victim.key.file, victim.key.page, victim.data);
      --dirty_pages;
    }
    ++evictions;
    map_.erase(victim.key);
    lru_.pop_back();
  }

  u64 capacity_pages_;
  u64 page_size_;
  LruList lru_;
  std::unordered_map<Key, LruList::iterator, KeyHash> map_;
  vfs::BufferCache::WritebackFn writeback_;
};

// A written-back or dirty page, by content: a trimmed page is a new blob in
// each cache, so the two logs cannot compare blob identity.
struct PageWb {
  u64 file;
  u64 page;
  u64 size;
  u64 hash;
  bool operator==(const PageWb& o) const {
    return file == o.file && page == o.page && size == o.size && hash == o.hash;
  }
};

PageWb page_wb(u64 file, u64 page, const blob::BlobRef& data) {
  return {file, page, data->size(), blob::content_hash(*data)};
}

std::vector<PageWb> dirty_wbs(u64 file, const std::vector<std::pair<u64, blob::BlobRef>>& pages) {
  std::vector<PageWb> out;
  for (const auto& [page, data] : pages) out.push_back(page_wb(file, page, data));
  return out;
}

// A cache's own dirty blob at (file, page), if any.
std::optional<blob::BlobRef> dirty_blob(
    const std::vector<std::pair<u64, blob::BlobRef>>& dirty_pages, u64 page) {
  for (const auto& [pg, data] : dirty_pages) {
    if (pg == page) return data;
  }
  return std::nullopt;
}

struct BufferCacheParam {
  u64 seed;
  u64 capacity_pages;
};

class BufferCacheEquivalence : public ::testing::TestWithParam<BufferCacheParam> {};

TEST_P(BufferCacheEquivalence, RandomOpsMatchListMapReference) {
  const BufferCacheParam param = GetParam();
  constexpr u32 kPage = 4_KiB;
  sim::SimKernel kernel;
  vfs::BufferCache cache(param.capacity_pages * kPage, kPage);
  RefBufferCache ref(param.capacity_pages, kPage);
  std::vector<PageWb> real_log;
  std::vector<PageWb> ref_log;
  cache.set_writeback([&](sim::Process&, u64 file, u64 page, const blob::BlobRef& data) {
    real_log.push_back(page_wb(file, page, data));
  });
  ref.set_writeback([&](sim::Process&, u64 file, u64 page, const blob::BlobRef& data) {
    ref_log.push_back(page_wb(file, page, data));
  });

  // Key pool: half the keys share their home bucket in every table up to 64
  // slots, so probe runs are long and deletes shift members backwards; the
  // rest are spread at random.
  constexpr u64 kFiles = 4;
  std::vector<std::pair<u64, u64>> keys;
  for (u64 file = 1; file <= kFiles; ++file) {
    for (u64 page = 0; keys.size() < 12 * file; ++page) {
      if ((hash_combine(file, page) & 63) == 5) keys.emplace_back(file, page);
    }
  }
  for (u64 file = 1; file <= kFiles; ++file) {
    for (u64 page = 0; page < 12; ++page) keys.emplace_back(file, page);
  }

  kernel.run_process("replay", [&](sim::Process& p) {
    SplitMix64 rng(param.seed);
    u32 tag = 0;
    auto fresh = [&] {
      ++tag;
      return blob::make_bytes(std::vector<u8>{static_cast<u8>(tag), static_cast<u8>(tag >> 8),
                                              static_cast<u8>(tag >> 16), 0xfe});
    };
    // A fetched block of one to four pages, the last one possibly short.
    // Its bytes come from a stream seeded with its tag, so a page of more
    // than a few bytes matches no other page of any block: a stale view
    // that a lookup returns shows as a byte mismatch.
    auto fresh_block = [&] {
      ++tag;
      u64 tail = rng.next_below(kPage);
      u64 size = rng.next_below(4) * kPage + (tail == 0 ? kPage : tail);
      SplitMix64 bytes(hash_combine(param.seed, tag));
      std::vector<u8> v(size);
      for (u8& b : v) b = static_cast<u8>(bytes.next());
      return blob::make_bytes(std::move(v));
    };
    for (int op = 0; op < 6000; ++op) {
      auto [file, page] = keys[rng.next_below(keys.size())];
      switch (rng.next_below(17)) {
        case 0:
        case 1:
        case 2:
        case 3:
        case 4: {  // insert a fresh page, clean or dirty
          bool dirty = rng.next_below(2) == 0;
          blob::BlobRef data = fresh();
          cache.insert(p, file, page, data, dirty);
          ref.insert(p, file, page, data, dirty);
          break;
        }
        case 5:
        case 6:
        case 7:
        case 8: {  // lookup: same hit and the same bytes; a whole-blob page
                   // is the very same blob
          auto got = cache.lookup(file, page);
          auto want = ref.lookup(file, page);
          ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
          if (got) {
            ASSERT_EQ(got->len, (*want)->size()) << "op " << op;
            std::vector<u8> got_bytes(got->len);
            std::vector<u8> want_bytes(got->len);
            got->data->read(got->off, got_bytes);
            (*want)->read(0, want_bytes);
            EXPECT_EQ(got_bytes, want_bytes) << "op " << op;
            if (dynamic_cast<const blob::SliceBlob*>(want->get()) == nullptr) {
              EXPECT_EQ(got->data.get(), want->get()) << "op " << op;
              EXPECT_EQ(got->off, 0u) << "op " << op;
            }
          }
          break;
        }
        case 9: {  // mark clean with each cache's resident blob or a stale one
          auto real_current = dirty_blob(cache.dirty_pages_of(file), page);
          auto ref_current = dirty_blob(ref.dirty_pages_of(file), page);
          ASSERT_EQ(real_current.has_value(), ref_current.has_value()) << "op " << op;
          if (real_current && rng.next_below(4) != 0) {
            cache.mark_clean(file, page, *real_current);
            ref.mark_clean(file, page, *ref_current);
          } else {
            blob::BlobRef stale = fresh();
            cache.mark_clean(file, page, stale);
            ref.mark_clean(file, page, stale);
          }
          break;
        }
        case 10: {  // flush one file or all
          u64 which = rng.next_below(3) == 0 ? 0 : file;
          ASSERT_EQ(cache.flush(p, which), ref.flush(p, which)) << "op " << op;
          break;
        }
        case 11:
          cache.invalidate_file(p, file);
          ref.invalidate_file(p, file);
          break;
        case 12: {  // truncate: everything, or from a random byte on
          u64 from = rng.next_below(2) == 0 ? 0 : rng.next_below(14 * kPage);
          cache.discard_file(file, from);
          ref.discard_file(file, from);
          break;
        }
        case 13: {  // read-only views
          EXPECT_EQ(cache.dirty_files(), ref.dirty_files()) << "op " << op;
          EXPECT_EQ(dirty_wbs(file, cache.dirty_pages_of(file)),
                    dirty_wbs(file, ref.dirty_pages_of(file)))
              << "op " << op;
          EXPECT_EQ(cache.contains(file, page), ref.contains(file, page)) << "op " << op;
          break;
        }
        case 14:
          if (rng.next_below(20) == 0) {
            cache.drop_all();
            ref.drop_all();
          }
          break;
        case 15: {  // re-insert the resident bytes dirty (same data, re-staged)
          auto got = cache.lookup(file, page);
          auto want = ref.lookup(file, page);
          ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
          if (got) {
            cache.insert(p, file, page, *want, true);
            ref.insert(p, file, page, *want, true);
          }
          break;
        }
        case 16: {  // a clean multi-page READ reply lands
          blob::BlobRef block = fresh_block();
          cache.insert_block(p, file, page, block);
          ref.insert_block(p, file, page, block);
          break;
        }
      }
      ASSERT_EQ(cache.hits(), ref.hits) << "op " << op;
      ASSERT_EQ(cache.misses(), ref.misses) << "op " << op;
      ASSERT_EQ(cache.evictions(), ref.evictions) << "op " << op;
      ASSERT_EQ(cache.dirty_pages(), ref.dirty_pages) << "op " << op;
      ASSERT_EQ(cache.resident_pages(), ref.resident_pages()) << "op " << op;
      ASSERT_EQ(real_log.size(), ref_log.size()) << "op " << op;
    }
    ASSERT_EQ(real_log, ref_log);
    for (const auto& [file, page] : keys) {
      ASSERT_EQ(cache.contains(file, page), ref.contains(file, page));
    }
    // Drain: everything dirty goes upstream, nothing left behind.
    EXPECT_EQ(cache.flush(p), ref.flush(p, 0));
    EXPECT_EQ(real_log, ref_log);
    EXPECT_EQ(cache.dirty_pages(), 0u);
  });
  EXPECT_EQ(kernel.failed_processes(), 0) << kernel.failed_names_joined();
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndCapacities, BufferCacheEquivalence,
    ::testing::Values(BufferCacheParam{31, 1}, BufferCacheParam{32, 3},
                      BufferCacheParam{33, 12}, BufferCacheParam{34, 40},
                      BufferCacheParam{35, 96}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) + "_pages" +
             std::to_string(info.param.capacity_pages);
    });

}  // namespace
}  // namespace gvfs::core
