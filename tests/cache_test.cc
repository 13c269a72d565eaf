// Tests for the proxy disk cache (set-associative geometry, LRU within sets,
// write policies, middleware signals, sharing invariants) and the whole-file
// cache behind the meta-data channel. Includes parameterized sweeps over
// geometry as property tests.
#include <gtest/gtest.h>

#include "test_util.h"

#include "cache/block_cache.h"
#include "cache/file_cache.h"
#include "common/rng.h"
#include "sim/kernel.h"

namespace gvfs::cache {
namespace {

blob::BlobRef block_data(u8 fill, u64 size = 32_KiB) {
  return blob::make_bytes(std::vector<u8>(size, fill));
}

struct CacheFixture {
  sim::SimKernel kernel;
  sim::DiskModel disk{kernel, "cdisk", sim::DiskConfig{}};

  BlockCacheConfig small_cfg() {
    BlockCacheConfig cfg;
    cfg.capacity_bytes = 64 * 32_KiB;  // 64 frames
    cfg.block_size = 32_KiB;
    cfg.num_banks = 4;
    cfg.associativity = 4;  // 16 sets
    return cfg;
  }

  void run(std::function<void(sim::Process&)> body) {
    kernel.run_process("t", std::move(body));
    EXPECT_EQ(kernel.failed_processes(), 0) << kernel.failed_names_joined();
  }
};

TEST(BlockCache, GeometryDerivedFromConfig) {
  CacheFixture f;
  ProxyDiskCache c(f.disk, f.small_cfg());
  EXPECT_EQ(c.sets(), 16u);
}

TEST(BlockCache, PaperGeometry) {
  CacheFixture f;
  BlockCacheConfig cfg;  // defaults: 8 GB, 32 KB blocks, 512 banks, 16-way
  ProxyDiskCache c(f.disk, cfg);
  // 8 GiB / 32 KiB = 262144 frames; /16 = 16384 sets.
  EXPECT_EQ(c.sets(), 16384u);
}

TEST(BlockCache, MissThenHit) {
  CacheFixture f;
  ProxyDiskCache c(f.disk, f.small_cfg());
  f.run([&](sim::Process& p) {
    BlockId id{42, 7};
    EXPECT_FALSE(c.lookup(p, id).has_value());
    ASSERT_TRUE(c.insert(p, id, block_data(1), false).is_ok());
    auto hit = c.lookup(p, id);
    ASSERT_TRUE(hit.has_value());
    std::vector<u8> buf(1);
    (*hit)->read(0, buf);
    EXPECT_EQ(buf[0], 1);
  });
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
  EXPECT_EQ(c.resident_blocks(), 1u);
}

TEST(BlockCache, HitChargesCacheDiskTime) {
  CacheFixture f;
  ProxyDiskCache c(f.disk, f.small_cfg());
  f.run([&](sim::Process& p) {
    BlockId id{1, 0};
    ASSERT_OK(c.insert(p, id, block_data(1), false));
    SimTime t0 = p.now();
    c.lookup(p, id);
    EXPECT_GT(p.now(), t0);  // disk access, not free
  });
}

TEST(BlockCache, ConsecutiveBlocksMapToConsecutiveSets) {
  CacheFixture f;
  auto cfg = f.small_cfg();
  ProxyDiskCache c(f.disk, cfg);
  f.run([&](sim::Process& p) {
    // Fill way beyond one set's associativity with consecutive blocks of one
    // file; nothing should evict because they spread across sets.
    for (u64 b = 0; b < 16; ++b) {
      ASSERT_TRUE(c.insert(p, BlockId{9, b}, block_data(static_cast<u8>(b)), false).is_ok());
    }
    EXPECT_EQ(c.evictions(), 0u);
    for (u64 b = 0; b < 16; ++b) {
      EXPECT_TRUE(c.lookup(p, BlockId{9, b}).has_value());
    }
  });
}

TEST(BlockCache, LruEvictionWithinSet) {
  CacheFixture f;
  auto cfg = f.small_cfg();
  ProxyDiskCache c(f.disk, cfg);
  f.run([&](sim::Process& p) {
    // Blocks spaced 16 apart land in the same set (16 sets).
    std::vector<BlockId> ids;
    for (u64 i = 0; i < 5; ++i) ids.push_back(BlockId{3, i * 16});
    for (u64 i = 0; i < 4; ++i) ASSERT_OK(c.insert(p, ids[i], block_data(1), false));
    c.lookup(p, ids[0]);  // refresh 0 -> victim should be 1
    ASSERT_OK(c.insert(p, ids[4], block_data(1), false));
    EXPECT_TRUE(c.contains(ids[0]));
    EXPECT_FALSE(c.contains(ids[1]));
    EXPECT_TRUE(c.contains(ids[4]));
  });
  EXPECT_EQ(c.evictions(), 1u);
}

TEST(BlockCache, DirtyEvictionWritesBack) {
  CacheFixture f;
  auto cfg = f.small_cfg();
  ProxyDiskCache c(f.disk, cfg);
  std::vector<BlockId> written;
  c.set_writeback([&](sim::Process&, const BlockId& id, const blob::BlobRef&) {
    written.push_back(id);
    return Status::ok();
  });
  f.run([&](sim::Process& p) {
    for (u64 i = 0; i < 5; ++i) {
      ASSERT_OK(c.insert(p, BlockId{3, i * 16}, block_data(1), /*dirty=*/true));
    }
  });
  ASSERT_EQ(written.size(), 1u);
  EXPECT_EQ(written[0].block, 0u);
  EXPECT_EQ(c.writebacks(), 1u);
  EXPECT_EQ(c.dirty_blocks(), 4u);
}

TEST(BlockCache, WriteThroughPushesImmediately) {
  CacheFixture f;
  auto cfg = f.small_cfg();
  cfg.policy = WritePolicy::kWriteThrough;
  ProxyDiskCache c(f.disk, cfg);
  int upstream_writes = 0;
  c.set_writeback([&](sim::Process&, const BlockId&, const blob::BlobRef&) {
    ++upstream_writes;
    return Status::ok();
  });
  f.run([&](sim::Process& p) {
    ASSERT_OK(c.insert(p, BlockId{1, 0}, block_data(1), /*dirty=*/true));
  });
  EXPECT_EQ(upstream_writes, 1);
  EXPECT_EQ(c.dirty_blocks(), 0u);
}

TEST(BlockCache, WriteBackAllCleansButKeepsCached) {
  CacheFixture f;
  ProxyDiskCache c(f.disk, f.small_cfg());
  int upstream_writes = 0;
  c.set_writeback([&](sim::Process&, const BlockId&, const blob::BlobRef&) {
    ++upstream_writes;
    return Status::ok();
  });
  f.run([&](sim::Process& p) {
    ASSERT_OK(c.insert(p, BlockId{1, 0}, block_data(1), true));
    ASSERT_OK(c.insert(p, BlockId{1, 1}, block_data(2), true));
    ASSERT_OK(c.insert(p, BlockId{1, 2}, block_data(3), false));
    ASSERT_TRUE(c.write_back_all(p).is_ok());
    EXPECT_EQ(c.dirty_blocks(), 0u);
    EXPECT_EQ(c.resident_blocks(), 3u);  // still cached
    EXPECT_TRUE(c.lookup(p, BlockId{1, 0}).has_value());
  });
  EXPECT_EQ(upstream_writes, 2);
}

// Regression: a write-back cleared the frame's dirty bit after its upstream
// write even when a newer write landed in the frame during that write's
// yield, so the newer bytes sat clean in the cache and never went upstream.
TEST(BlockCache, WriteLandingDuringWriteBackStaysDirty) {
  for (bool whole_cache : {false, true}) {
    CacheFixture f;
    ProxyDiskCache c(f.disk, f.small_cfg());
    std::vector<u8> pushed;  // first byte of every block written back
    c.set_writeback([&](sim::Process& p, const BlockId&, const blob::BlobRef& data) {
      std::vector<u8> first(1);
      data->read(0, first);
      pushed.push_back(first[0]);
      p.delay(10 * kMillisecond);  // the upstream WRITE's round trip
      return Status::ok();
    });
    f.run([&](sim::Process& p) {
      ASSERT_OK(c.insert(p, BlockId{1, 0}, block_data(1), true));
      (void)p.kernel().spawn("writer", [&](sim::Process& q) {
        ASSERT_OK(c.insert(q, BlockId{1, 0}, block_data(2), true));
      }, 5 * kMillisecond);
      ASSERT_OK(whole_cache ? c.write_back_all(p) : c.write_back_file(p, 1));
      EXPECT_EQ(c.dirty_blocks(), 1u);
      EXPECT_EQ(c.file_dirty_blocks(1), 1u);
      ASSERT_OK(whole_cache ? c.write_back_all(p) : c.write_back_file(p, 1));
      EXPECT_EQ(c.dirty_blocks(), 0u);
    });
    EXPECT_EQ(pushed, (std::vector<u8>{1, 2})) << (whole_cache ? "all" : "file");
  }
}

// Regression: write_back_file read the next frame's index before the
// write-back yielded. When a read evicted that frame and reused it for
// another file meanwhile, the walk went on down the new owner's list and
// left the file's later dirty frames unsent.
TEST(BlockCache, WriteBackFileReachesEveryDirtyFrame) {
  CacheFixture f;
  BlockCacheConfig cfg;
  cfg.capacity_bytes = 16 * 32_KiB;
  cfg.block_size = 32_KiB;
  cfg.num_banks = 1;
  cfg.associativity = 1;  // 16 sets of one way
  ProxyDiskCache c(f.disk, cfg);
  // A block of file 2 that maps to the set of file 1's block 1.
  const u64 g_block = ((mix64(1) + 1) % 16 + 16 - mix64(2) % 16) % 16;
  int writebacks = 0;
  c.set_writeback([&](sim::Process& p, const BlockId&, const blob::BlobRef&) {
    if (writebacks++ == 0) {
      // While the first block's WRITE is out, a read fills block 1's set.
      EXPECT_TRUE(c.insert(p, BlockId{2, g_block}, block_data(9), false).is_ok());
    }
    return Status::ok();
  });
  f.run([&](sim::Process& p) {
    for (u64 b = 0; b < 3; ++b) ASSERT_OK(c.insert(p, BlockId{1, b}, block_data(1), true));
    ASSERT_OK(c.write_back_file(p, 1));
    EXPECT_FALSE(c.contains(BlockId{1, 1}));  // evicted by the fill
    EXPECT_EQ(c.file_dirty_blocks(1), 0u);
  });
  EXPECT_EQ(writebacks, 3);
}

TEST(BlockCache, FlushAndInvalidateEmptiesCache) {
  CacheFixture f;
  ProxyDiskCache c(f.disk, f.small_cfg());
  c.set_writeback([](sim::Process&, const BlockId&, const blob::BlobRef&) {
    return Status::ok();
  });
  f.run([&](sim::Process& p) {
    ASSERT_OK(c.insert(p, BlockId{1, 0}, block_data(1), true));
    ASSERT_TRUE(c.write_back_all(p).is_ok());
    c.invalidate_all();
    EXPECT_EQ(c.resident_blocks(), 0u);
    EXPECT_FALSE(c.lookup(p, BlockId{1, 0}).has_value());
  });
}

TEST(BlockCache, InvalidateFileDropsOnlyThatFile) {
  CacheFixture f;
  ProxyDiskCache c(f.disk, f.small_cfg());
  f.run([&](sim::Process& p) {
    ASSERT_OK(c.insert(p, BlockId{1, 0}, block_data(1), false));
    ASSERT_OK(c.insert(p, BlockId{2, 0}, block_data(2), false));
    c.invalidate_file(1);
    EXPECT_FALSE(c.contains(BlockId{1, 0}));
    EXPECT_TRUE(c.contains(BlockId{2, 0}));
  });
}

TEST(BlockCache, MergeUpdatesRangeAndMarksDirty) {
  CacheFixture f;
  ProxyDiskCache c(f.disk, f.small_cfg());
  f.run([&](sim::Process& p) {
    ASSERT_OK(c.insert(p, BlockId{1, 0}, block_data(0xaa, 1024), false));
    auto merged = c.merge(p, BlockId{1, 0}, 100,
                          blob::make_bytes(std::vector<u8>(10, 0xbb)));
    ASSERT_TRUE(merged.is_ok());
    std::vector<u8> buf(1024);
    (*merged)->read(0, buf);
    EXPECT_EQ(buf[99], 0xaa);
    EXPECT_EQ(buf[100], 0xbb);
    EXPECT_EQ(buf[110], 0xaa);
    EXPECT_EQ(c.dirty_blocks(), 1u);
    EXPECT_EQ(c.merge(p, BlockId{9, 9}, 0, block_data(1, 8)).code(), ErrCode::kNoEnt);
  });
}

TEST(BlockCache, BanksCreatedOnDemand) {
  CacheFixture f;
  ProxyDiskCache c(f.disk, f.small_cfg());
  f.run([&](sim::Process& p) {
    EXPECT_EQ(c.banks_created(), 0u);
    ASSERT_OK(c.insert(p, BlockId{1, 0}, block_data(1), false));
    EXPECT_GE(c.banks_created(), 1u);
  });
}

TEST(BlockCache, ResidentBytesTracksPayload) {
  CacheFixture f;
  ProxyDiskCache c(f.disk, f.small_cfg());
  f.run([&](sim::Process& p) {
    ASSERT_OK(c.insert(p, BlockId{1, 0}, block_data(1, 32_KiB), false));
    ASSERT_OK(c.insert(p, BlockId{1, 1}, block_data(1, 10_KiB), false));  // short tail block
    EXPECT_EQ(c.resident_bytes(), 42_KiB);
  });
}

// ------------------------------------------------------ content dedup store --

BlockCacheConfig dedup_cfg(CacheFixture& f, u32 key_bits = 64) {
  BlockCacheConfig cfg = f.small_cfg();
  cfg.dedup_blocks = true;
  cfg.dedup_key_bits = key_bits;
  return cfg;
}

TEST(BlockCacheDedup, AliasChargesResidentOnce) {
  CacheFixture f;
  ProxyDiskCache c(f.disk, dedup_cfg(f));
  f.run([&](sim::Process& p) {
    ASSERT_OK(c.insert(p, BlockId{1, 0}, block_data(7), false));
    ASSERT_OK(c.insert(p, BlockId{2, 5}, block_data(7), false));  // identical bytes
    EXPECT_EQ(c.resident_blocks(), 2u);          // two addressable frames...
    EXPECT_EQ(c.resident_bytes(), 32_KiB);       // ...one resident payload
    EXPECT_EQ(c.dedup_entries(), 1u);
    EXPECT_EQ(c.dedup_aliases(), 1u);
    EXPECT_EQ(c.dedup_bytes_saved(), 32_KiB);
    // Both frames still serve the right bytes.
    for (BlockId id : {BlockId{1, 0}, BlockId{2, 5}}) {
      auto hit = c.lookup(p, id);
      ASSERT_TRUE(hit.has_value());
      std::vector<u8> buf(1);
      (*hit)->read(0, buf);
      EXPECT_EQ(buf[0], 7);
    }
  });
}

TEST(BlockCacheDedup, LookupFingerprintFindsResidentBlock) {
  CacheFixture f;
  BlockCacheConfig cfg = dedup_cfg(f);
  ProxyDiskCache c(f.disk, cfg);
  f.run([&](sim::Process& p) {
    auto data = block_data(9);
    u64 fp = data->fingerprint(cfg.dedup_seed, 0, data->size());
    EXPECT_FALSE(c.lookup_fingerprint(fp, data->size()).has_value());
    ASSERT_OK(c.insert(p, BlockId{3, 1}, data, false));
    auto hit = c.lookup_fingerprint(fp, data->size());
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(c.dedup_hits(), 1u);
    std::vector<u8> buf(1);
    (*hit)->read(0, buf);
    EXPECT_EQ(buf[0], 9);
    // Size is part of the identity check: same fp, wrong size misses.
    EXPECT_FALSE(c.lookup_fingerprint(fp, 16_KiB).has_value());
  });
}

TEST(BlockCacheDedup, CowSplitRechargesAndLeavesAliasIntact) {
  CacheFixture f;
  ProxyDiskCache c(f.disk, dedup_cfg(f));
  f.run([&](sim::Process& p) {
    ASSERT_OK(c.insert(p, BlockId{1, 0}, block_data(7), false));
    ASSERT_OK(c.insert(p, BlockId{2, 0}, block_data(7), false));
    ASSERT_EQ(c.resident_bytes(), 32_KiB);
    // Writing into one alias splits it off the shared payload.
    auto merged = c.merge(p, BlockId{2, 0}, 0, blob::make_bytes(std::vector<u8>(8, 0xee)));
    ASSERT_TRUE(merged.is_ok());
    EXPECT_EQ(c.resident_bytes(), 2 * 32_KiB);  // private copy re-charged
    std::vector<u8> buf(1);
    (*merged)->read(0, buf);
    EXPECT_EQ(buf[0], 0xee);
    // The other alias still reads the original bytes.
    auto orig = c.lookup(p, BlockId{1, 0});
    ASSERT_TRUE(orig.has_value());
    (*orig)->read(0, buf);
    EXPECT_EQ(buf[0], 7);
  });
}

TEST(BlockCacheDedup, DirtyInsertStaysPrivate) {
  CacheFixture f;
  BlockCacheConfig cfg = dedup_cfg(f);
  ProxyDiskCache c(f.disk, cfg);
  f.run([&](sim::Process& p) {
    auto data = block_data(4);
    ASSERT_OK(c.insert(p, BlockId{1, 0}, data, /*dirty=*/true));
    // Dirty bytes never enter the store: no entry, no fingerprint hit.
    EXPECT_EQ(c.dedup_entries(), 0u);
    u64 fp = data->fingerprint(cfg.dedup_seed, 0, data->size());
    EXPECT_FALSE(c.lookup_fingerprint(fp, data->size()).has_value());
    // A second identical dirty insert charges its own bytes.
    ASSERT_OK(c.insert(p, BlockId{2, 0}, block_data(4), /*dirty=*/true));
    EXPECT_EQ(c.resident_bytes(), 2 * 32_KiB);
    EXPECT_EQ(c.dedup_aliases(), 0u);
  });
}

TEST(BlockCacheDedup, NarrowKeyBitsForcesCollisionNotAliasing) {
  CacheFixture f;
  // One key bit: every fingerprint maps to one of two store slots, so
  // distinct contents collide. Collisions must be counted and must never
  // alias frames to the wrong bytes.
  ProxyDiskCache c(f.disk, dedup_cfg(f, /*key_bits=*/1));
  f.run([&](sim::Process& p) {
    for (u8 fill = 1; fill <= 8; ++fill) {
      ASSERT_OK(c.insert(p, BlockId{1, fill}, block_data(fill), false));
    }
    EXPECT_GE(c.dedup_collisions(), 6u);  // 8 keys into 2 slots
    EXPECT_EQ(c.dedup_aliases(), 0u);
    EXPECT_LE(c.dedup_entries(), 2u);
    for (u8 fill = 1; fill <= 8; ++fill) {
      auto hit = c.lookup(p, BlockId{1, fill});
      ASSERT_TRUE(hit.has_value());
      std::vector<u8> buf(1);
      (*hit)->read(0, buf);
      EXPECT_EQ(buf[0], fill);
    }
  });
}

TEST(BlockCacheDedup, InvalidateAllClearsStore) {
  CacheFixture f;
  ProxyDiskCache c(f.disk, dedup_cfg(f));
  f.run([&](sim::Process& p) {
    ASSERT_OK(c.insert(p, BlockId{1, 0}, block_data(7), false));
    ASSERT_OK(c.insert(p, BlockId{2, 0}, block_data(7), false));
    c.invalidate_all();
    EXPECT_EQ(c.dedup_entries(), 0u);
    EXPECT_EQ(c.resident_bytes(), 0u);
    // Cache works normally afterwards.
    ASSERT_OK(c.insert(p, BlockId{1, 0}, block_data(8), false));
    EXPECT_EQ(c.resident_bytes(), 32_KiB);
    EXPECT_EQ(c.dedup_entries(), 1u);
  });
}

TEST(BlockCacheDedup, InvalidateFileReleasesAliasKeepsPayload) {
  CacheFixture f;
  ProxyDiskCache c(f.disk, dedup_cfg(f));
  f.run([&](sim::Process& p) {
    ASSERT_OK(c.insert(p, BlockId{1, 0}, block_data(7), false));
    ASSERT_OK(c.insert(p, BlockId{2, 0}, block_data(7), false));
    c.invalidate_file(2);
    // File 1 still holds a ref, so the payload stays charged and findable.
    EXPECT_EQ(c.resident_bytes(), 32_KiB);
    EXPECT_EQ(c.dedup_entries(), 1u);
    EXPECT_TRUE(c.contains(BlockId{1, 0}));
    c.invalidate_file(1);
    EXPECT_EQ(c.resident_bytes(), 0u);
    EXPECT_EQ(c.dedup_entries(), 0u);
  });
}

TEST(BlockCacheDedup, OffByDefaultIsInert) {
  CacheFixture f;
  BlockCacheConfig cfg = f.small_cfg();  // dedup_blocks defaults to false
  ProxyDiskCache c(f.disk, cfg);
  f.run([&](sim::Process& p) {
    auto data = block_data(7);
    ASSERT_OK(c.insert(p, BlockId{1, 0}, data, false));
    ASSERT_OK(c.insert(p, BlockId{2, 0}, block_data(7), false));
    EXPECT_EQ(c.resident_bytes(), 2 * 32_KiB);  // both charged: no aliasing
    EXPECT_EQ(c.dedup_entries(), 0u);
    EXPECT_EQ(c.dedup_aliases(), 0u);
    u64 fp = data->fingerprint(cfg.dedup_seed, 0, data->size());
    EXPECT_FALSE(c.lookup_fingerprint(fp, data->size()).has_value());
  });
}

// Parameterized geometry sweep: for any (associativity, banks) geometry, a
// working set within capacity never thrashes, and data integrity holds under
// a random access pattern.
struct Geometry {
  u32 assoc;
  u32 banks;
  u64 frames;
};

class BlockCacheGeometry : public ::testing::TestWithParam<Geometry> {};

TEST_P(BlockCacheGeometry, IntegrityAndNoThrashWithinCapacity) {
  Geometry g = GetParam();
  sim::SimKernel kernel;
  sim::DiskModel disk{kernel, "d", sim::DiskConfig{}};
  BlockCacheConfig cfg;
  cfg.block_size = 8_KiB;
  cfg.capacity_bytes = g.frames * cfg.block_size;
  cfg.associativity = g.assoc;
  cfg.num_banks = g.banks;
  ProxyDiskCache c(disk, cfg);
  kernel.run_process("t", [&](sim::Process& p) {
    SplitMix64 rng(g.assoc * 1000 + g.banks);
    // Insert a working set of one file's consecutive blocks, half capacity.
    u64 ws = g.frames / 2;
    for (u64 b = 0; b < ws; ++b) {
      ASSERT_TRUE(
          c.insert(p, BlockId{7, b}, block_data(static_cast<u8>(b), 8_KiB), false).is_ok());
    }
    // Random re-reads all hit and return the right data.
    for (int i = 0; i < 200; ++i) {
      u64 b = rng.next_below(ws);
      auto hit = c.lookup(p, BlockId{7, b});
      ASSERT_TRUE(hit.has_value()) << "assoc=" << g.assoc << " block=" << b;
      std::vector<u8> buf(1);
      (*hit)->read(0, buf);
      EXPECT_EQ(buf[0], static_cast<u8>(b));
    }
    EXPECT_EQ(c.evictions(), 0u);
  });
  EXPECT_EQ(kernel.failed_processes(), 0) << kernel.failed_names_joined();
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BlockCacheGeometry,
    ::testing::Values(Geometry{1, 1, 64}, Geometry{2, 2, 64}, Geometry{4, 4, 128},
                      Geometry{8, 16, 256}, Geometry{16, 32, 512},
                      Geometry{16, 512, 1024}),
    [](const ::testing::TestParamInfo<Geometry>& info) {
      return "assoc" + std::to_string(info.param.assoc) + "banks" +
             std::to_string(info.param.banks) + "frames" +
             std::to_string(info.param.frames);
    });

// ---------------------------------------------------------------- FileCache --

TEST(FileCache, PutReadBack) {
  CacheFixture f;
  FileCache fc(f.disk);
  auto content = blob::make_synthetic(5, 1_MiB, 0.5, 2.0);
  f.run([&](sim::Process& p) {
    ASSERT_TRUE(fc.put(p, 1, content).is_ok());
    EXPECT_TRUE(fc.contains(1));
    EXPECT_EQ(fc.cached_size(1), content->size());
    auto range = fc.read(p, 1, 100, 50);
    ASSERT_TRUE(range.has_value());
    std::vector<u8> got(50), expect(50);
    (*range)->read(0, got);
    content->read(100, expect);
    EXPECT_EQ(got, expect);
  });
  EXPECT_EQ(fc.hits(), 1u);
}

TEST(FileCache, MissReturnsNullopt) {
  CacheFixture f;
  FileCache fc(f.disk);
  f.run([&](sim::Process& p) { EXPECT_FALSE(fc.read(p, 9, 0, 10).has_value()); });
  EXPECT_EQ(fc.misses(), 1u);
}

TEST(FileCache, CapacityEvictsLru) {
  CacheFixture f;
  FileCache fc(f.disk, FileCacheConfig{2_MiB});
  f.run([&](sim::Process& p) {
    ASSERT_OK(fc.put(p, 1, blob::make_zero(1_MiB)));
    ASSERT_OK(fc.put(p, 2, blob::make_zero(1_MiB)));
    fc.read(p, 1, 0, 1);  // refresh 1
    ASSERT_OK(fc.put(p, 3, blob::make_zero(1_MiB)));
    EXPECT_TRUE(fc.contains(1));
    EXPECT_FALSE(fc.contains(2));
    EXPECT_TRUE(fc.contains(3));
  });
  EXPECT_EQ(fc.evictions(), 1u);
}

TEST(FileCache, DirtyEvictionUploads) {
  CacheFixture f;
  FileCache fc(f.disk, FileCacheConfig{1_MiB});
  std::vector<u64> uploaded;
  fc.set_upload([&](sim::Process&, u64 key, const blob::BlobRef&) {
    uploaded.push_back(key);
    return Status::ok();
  });
  f.run([&](sim::Process& p) {
    ASSERT_OK(fc.put(p, 1, blob::make_zero(512_KiB), /*dirty=*/true));
    ASSERT_OK(fc.put(p, 2, blob::make_zero(1_MiB)));  // evicts dirty 1
  });
  EXPECT_EQ(uploaded, (std::vector<u64>{1}));
}

TEST(FileCache, WriteMarksDirtyAndWriteBackUploads) {
  CacheFixture f;
  FileCache fc(f.disk);
  int uploads = 0;
  fc.set_upload([&](sim::Process&, u64, const blob::BlobRef& content) {
    EXPECT_EQ(content->size(), 1_MiB);
    ++uploads;
    return Status::ok();
  });
  f.run([&](sim::Process& p) {
    ASSERT_OK(fc.put(p, 1, blob::make_zero(1_MiB)));
    ASSERT_TRUE(fc.write(p, 1, 100, blob::make_bytes(std::vector<u8>(8, 0xcc))).is_ok());
    ASSERT_TRUE(fc.write_back_all(p).is_ok());
    ASSERT_TRUE(fc.write_back_all(p).is_ok());  // idempotent: clean now
    auto back = fc.read(p, 1, 100, 8);
    std::vector<u8> got(8);
    (*back)->read(0, got);
    EXPECT_EQ(got, std::vector<u8>(8, 0xcc));
  });
  EXPECT_EQ(uploads, 1);
}

// Regression for the cross-yield defects the yield-point analyzer surfaced in
// FileCache::read: the Entry reference acquired before disk_.access() used to
// be dereferenced after it, but the disk access yields — and a concurrent
// invalidate() erases the entry. The fix copies the content handle before the
// yield and re-finds for the LRU bookkeeping.
TEST(FileCache, InvalidateDuringReadStillServesCopiedContent) {
  CacheFixture f;
  FileCache fc(f.disk);
  auto content = blob::make_synthetic(6, 1_MiB, 0.0, 2.0);
  bool read_started = false;
  f.kernel.spawn("reader", [&](sim::Process& p) {
    ASSERT_OK(fc.put(p, 1, content));
    read_started = true;
    auto range = fc.read(p, 1, 0, 1_MiB);  // parks on the cache disk
    ASSERT_TRUE(range.has_value());
    std::vector<u8> got(1_MiB), expect(1_MiB);
    (*range)->read(0, got);
    content->read(0, expect);
    EXPECT_EQ(got, expect);  // the copied handle outlived the invalidate
  });
  f.kernel.spawn("invalidator", [&](sim::Process& p) {
    while (!read_started) p.delay(kMillisecond);
    p.delay(kMillisecond);  // land inside the reader's disk access
    ASSERT_TRUE(fc.contains(1));
    fc.invalidate(1);
  });
  f.kernel.run();
  EXPECT_EQ(f.kernel.failed_processes(), 0) << f.kernel.failed_names_joined();
  EXPECT_FALSE(fc.contains(1));
}

// Same family, in write_back_all: the range-for over lru_ used to stay parked
// on a list node across the upload yield, and a concurrent invalidate could
// unlink that very node. The fix snapshots the dirty keys and re-finds after
// each upload; an entry invalidated mid-drain is skipped, not chased.
TEST(FileCache, InvalidateDuringWriteBackUploadIsSafe) {
  CacheFixture f;
  FileCache fc(f.disk);
  std::vector<u64> uploaded;
  fc.set_upload([&](sim::Process&, u64 key, const blob::BlobRef&) {
    uploaded.push_back(key);
    // Concurrent drop of the entry being uploaded AND of the next dirty one.
    fc.invalidate(1);
    fc.invalidate(2);
    return Status::ok();
  });
  f.run([&](sim::Process& p) {
    ASSERT_OK(fc.put(p, 1, blob::make_zero(64_KiB), /*dirty=*/true));
    ASSERT_OK(fc.put(p, 2, blob::make_zero(64_KiB), /*dirty=*/true));
    ASSERT_OK(fc.write_back_all(p));
  });
  // The drain walks MRU-first, so key 2 uploads; key 1 was invalidated before
  // its turn came: one upload, no dangling list node.
  EXPECT_EQ(uploaded, (std::vector<u64>{2}));
  EXPECT_FALSE(fc.contains(1));
  EXPECT_FALSE(fc.contains(2));
}

// Regression: write_back_all marked a file clean after its upload even when
// a write landed during the upload, so the newer bytes were never uploaded.
TEST(FileCache, WriteDuringWriteBackUploadStaysDirty) {
  CacheFixture f;
  FileCache fc(f.disk);
  std::vector<u8> uploaded;  // first byte of every upload
  fc.set_upload([&](sim::Process& p, u64 key, const blob::BlobRef& content) {
    std::vector<u8> first(1);
    content->read(0, first);
    uploaded.push_back(first[0]);
    if (uploaded.size() == 1) {
      EXPECT_TRUE(fc.write(p, key, 0, block_data(2, 8)).is_ok());
    }
    return Status::ok();
  });
  f.run([&](sim::Process& p) {
    ASSERT_OK(fc.put(p, 1, block_data(1, 64_KiB), /*dirty=*/true));
    ASSERT_OK(fc.write_back_all(p));
    ASSERT_OK(fc.write_back_all(p));  // uploads the write made during the first
    ASSERT_OK(fc.write_back_all(p));  // clean now
  });
  EXPECT_EQ(uploaded, (std::vector<u8>{1, 2}));
}

// Regression: a dirty eviction held the LRU victim across its upload and
// then popped the list's back. A read during the upload moved the victim to
// the front, so another file's node was freed while the index still named
// it.
TEST(FileCache, ReadDuringDirtyEvictionUploadKeepsIndex) {
  CacheFixture f;
  FileCache fc(f.disk, FileCacheConfig{2_MiB});
  std::vector<u64> uploaded;
  fc.set_upload([&](sim::Process& p, u64 key, const blob::BlobRef&) {
    uploaded.push_back(key);
    EXPECT_TRUE(fc.read(p, key, 0, 4_KiB).has_value());
    return Status::ok();
  });
  f.run([&](sim::Process& p) {
    ASSERT_OK(fc.put(p, 1, blob::make_zero(1_MiB), /*dirty=*/true));
    ASSERT_OK(fc.put(p, 2, blob::make_zero(1_MiB)));
    ASSERT_OK(fc.put(p, 3, blob::make_zero(1_MiB)));  // evicts dirty 1
    ASSERT_OK(fc.put(p, 4, blob::make_zero(1_MiB)));  // evicts 2
  });
  EXPECT_EQ(uploaded, (std::vector<u64>{1}));
  EXPECT_FALSE(fc.contains(2));
  EXPECT_EQ(fc.files_cached(), 2u);
  EXPECT_EQ(fc.resident_bytes(), 2_MiB);
}

TEST(FileCache, WriteToAbsentFileFails) {
  CacheFixture f;
  FileCache fc(f.disk);
  f.run([&](sim::Process& p) {
    EXPECT_EQ(fc.write(p, 5, 0, block_data(1, 8)).code(), ErrCode::kNoEnt);
  });
}

TEST(FileCache, InvalidateDrops) {
  CacheFixture f;
  FileCache fc(f.disk);
  f.run([&](sim::Process& p) {
    ASSERT_OK(fc.put(p, 1, blob::make_zero(1_KiB)));
    ASSERT_OK(fc.put(p, 2, blob::make_zero(1_KiB)));
    fc.invalidate(1);
    EXPECT_FALSE(fc.contains(1));
    EXPECT_TRUE(fc.contains(2));
    fc.invalidate_all();
    EXPECT_EQ(fc.files_cached(), 0u);
    EXPECT_EQ(fc.resident_bytes(), 0u);
  });
}

TEST(FileCache, SequentialReadsCheaperThanRandom) {
  CacheFixture f;
  FileCache fc(f.disk);
  f.run([&](sim::Process& p) {
    ASSERT_OK(fc.put(p, 1, blob::make_zero(4_MiB)));
    SimTime t0 = p.now();
    for (u64 off = 0; off < 4_MiB; off += 64_KiB) fc.read(p, 1, off, 64_KiB);
    SimTime seq = p.now() - t0;
    t0 = p.now();
    SplitMix64 rng(4);
    for (int i = 0; i < 64; ++i) {
      fc.read(p, 1, rng.next_below(63) * 64_KiB, 64_KiB);
    }
    SimTime random = p.now() - t0;
    EXPECT_LT(seq, random);
  });
}

}  // namespace
}  // namespace gvfs::cache
