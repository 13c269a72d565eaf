// Tests for MemFs (inode semantics), the path convenience layer, the buffer
// cache (LRU, dirty staging, writeback), and the local-disk session.
#include <gtest/gtest.h>

#include "test_util.h"

#include "blob/blob.h"
#include "sim/kernel.h"
#include "sim/resources.h"
#include "vfs/buffer_cache.h"
#include "vfs/local_session.h"
#include "vfs/memfs.h"

namespace gvfs::vfs {
namespace {

blob::BlobRef bytes(std::initializer_list<u8> v) {
  return blob::make_bytes(std::vector<u8>(v));
}

// ------------------------------------------------------------------ MemFs --

TEST(MemFs, RootIsDirectory) {
  MemFs fs;
  auto a = fs.getattr(fs.root());
  ASSERT_TRUE(a.is_ok());
  EXPECT_EQ(a->type, FileType::kDirectory);
}

TEST(MemFs, CreateLookupRead) {
  MemFs fs;
  auto id = fs.create(fs.root(), "hello.txt", 0644, 1, 1);
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(fs.write(*id, 0, std::vector<u8>{'h', 'i'}).is_ok());
  auto found = fs.lookup(fs.root(), "hello.txt");
  ASSERT_TRUE(found.is_ok());
  EXPECT_EQ(*found, *id);
  std::vector<u8> buf(2);
  auto n = fs.read(*id, 0, buf);
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(*n, 2u);
  EXPECT_EQ(buf, (std::vector<u8>{'h', 'i'}));
}

TEST(MemFs, CreateDuplicateFails) {
  MemFs fs;
  ASSERT_TRUE(fs.create(fs.root(), "a", 0644, 0, 0).is_ok());
  EXPECT_EQ(fs.create(fs.root(), "a", 0644, 0, 0).code(), ErrCode::kExist);
}

TEST(MemFs, LookupMissingIsNoEnt) {
  MemFs fs;
  EXPECT_EQ(fs.lookup(fs.root(), "nope").code(), ErrCode::kNoEnt);
}

TEST(MemFs, LookupOnFileIsNotDir) {
  MemFs fs;
  auto id = fs.create(fs.root(), "f", 0644, 0, 0);
  EXPECT_EQ(fs.lookup(*id, "x").code(), ErrCode::kNotDir);
}

TEST(MemFs, StaleHandle) {
  MemFs fs;
  auto id = fs.create(fs.root(), "f", 0644, 0, 0);
  ASSERT_TRUE(fs.remove(fs.root(), "f").is_ok());
  EXPECT_EQ(fs.getattr(*id).code(), ErrCode::kStale);
}

TEST(MemFs, ReadPastEofShort) {
  MemFs fs;
  auto id = fs.create(fs.root(), "f", 0644, 0, 0);
  ASSERT_OK(fs.write(*id, 0, std::vector<u8>(10, 1)));
  std::vector<u8> buf(20);
  auto n = fs.read(*id, 5, buf);
  EXPECT_EQ(*n, 5u);
  auto n2 = fs.read(*id, 100, buf);
  EXPECT_EQ(*n2, 0u);
}

TEST(MemFs, SetattrTruncateAndMode) {
  MemFs fs;
  auto id = fs.create(fs.root(), "f", 0644, 0, 0);
  ASSERT_OK(fs.write(*id, 0, std::vector<u8>(100, 1)));
  SetAttr sa;
  sa.set_size = true;
  sa.size = 10;
  sa.set_mode = true;
  sa.mode = 0600;
  ASSERT_TRUE(fs.setattr(*id, sa).is_ok());
  auto a = fs.getattr(*id);
  EXPECT_EQ(a->size, 10u);
  EXPECT_EQ(a->mode, 0600u);
}

TEST(MemFs, MkdirNesting) {
  MemFs fs;
  auto d1 = fs.mkdir(fs.root(), "a", 0755, 0, 0);
  auto d2 = fs.mkdir(*d1, "b", 0755, 0, 0);
  ASSERT_TRUE(d2.is_ok());
  auto found = fs.resolve("/a/b");
  ASSERT_TRUE(found.is_ok());
  EXPECT_EQ(*found, *d2);
}

TEST(MemFs, RmdirOnlyWhenEmpty) {
  MemFs fs;
  auto d = fs.mkdir(fs.root(), "d", 0755, 0, 0);
  ASSERT_OK(fs.create(*d, "f", 0644, 0, 0));
  EXPECT_EQ(fs.rmdir(fs.root(), "d").code(), ErrCode::kNotEmpty);
  ASSERT_OK(fs.remove(*d, "f"));
  EXPECT_TRUE(fs.rmdir(fs.root(), "d").is_ok());
}

TEST(MemFs, RemoveDirectoryWithRemoveFails) {
  MemFs fs;
  ASSERT_OK(fs.mkdir(fs.root(), "d", 0755, 0, 0));
  EXPECT_EQ(fs.remove(fs.root(), "d").code(), ErrCode::kIsDir);
}

TEST(MemFs, RenameMovesAndOverwrites) {
  MemFs fs;
  auto a = fs.create(fs.root(), "a", 0644, 0, 0);
  ASSERT_OK(fs.write(*a, 0, std::vector<u8>{1}));
  auto b = fs.create(fs.root(), "b", 0644, 0, 0);
  ASSERT_OK(fs.write(*b, 0, std::vector<u8>{2, 2}));
  ASSERT_TRUE(fs.rename(fs.root(), "a", fs.root(), "b").is_ok());
  EXPECT_EQ(fs.lookup(fs.root(), "a").code(), ErrCode::kNoEnt);
  auto moved = fs.lookup(fs.root(), "b");
  EXPECT_EQ(*moved, *a);
  EXPECT_EQ(fs.getattr(*moved)->size, 1u);
}

TEST(MemFs, SymlinkAndReadlink) {
  MemFs fs;
  auto id = fs.symlink(fs.root(), "link", "/target/file");
  ASSERT_TRUE(id.is_ok());
  auto t = fs.readlink(*id);
  ASSERT_TRUE(t.is_ok());
  EXPECT_EQ(*t, "/target/file");
  EXPECT_EQ(fs.getattr(*id)->type, FileType::kSymlink);
}

TEST(MemFs, ResolveFollowsSymlink) {
  MemFs fs;
  ASSERT_TRUE(fs.mkdirs("/data").is_ok());
  ASSERT_TRUE(fs.put_file("/data/real.txt", bytes({5})).is_ok());
  auto dir = fs.resolve("/data");
  ASSERT_OK(fs.symlink(*dir, "alias.txt", "/data/real.txt"));
  auto via = fs.resolve("/data/alias.txt");
  ASSERT_TRUE(via.is_ok());
  EXPECT_EQ(*via, *fs.resolve("/data/real.txt"));
}

TEST(MemFs, ReaddirSorted) {
  MemFs fs;
  ASSERT_OK(fs.create(fs.root(), "b", 0644, 0, 0));
  ASSERT_OK(fs.create(fs.root(), "a", 0644, 0, 0));
  ASSERT_OK(fs.mkdir(fs.root(), "c", 0755, 0, 0));
  auto entries = fs.readdir(fs.root());
  ASSERT_TRUE(entries.is_ok());
  ASSERT_EQ(entries->size(), 3u);
  EXPECT_EQ((*entries)[0].name, "a");
  EXPECT_EQ((*entries)[2].type, FileType::kDirectory);
}

TEST(MemFs, PutGetFileHelpers) {
  MemFs fs;
  ASSERT_TRUE(fs.put_file("/x/y/z.bin", blob::make_synthetic(3, 1_MiB, 0.5, 2.0)).is_ok());
  EXPECT_TRUE(fs.exists("/x/y/z.bin"));
  EXPECT_FALSE(fs.exists("/x/y/none"));
  auto data = fs.get_file("/x/y/z.bin");
  ASSERT_TRUE(data.is_ok());
  EXPECT_EQ((*data)->size(), 1_MiB);
  // Overwrite replaces content.
  ASSERT_TRUE(fs.put_file("/x/y/z.bin", bytes({1, 2})).is_ok());
  EXPECT_EQ((*fs.get_file("/x/y/z.bin"))->size(), 2u);
}

TEST(MemFs, ClockStampsTimes) {
  MemFs fs;
  SimTime now = 1234 * kSecond;
  fs.set_clock([&] { return now; });
  auto id = fs.create(fs.root(), "f", 0644, 0, 0);
  EXPECT_EQ(fs.getattr(*id)->mtime, now);
  now += kSecond;
  ASSERT_OK(fs.write(*id, 0, std::vector<u8>{1}));
  EXPECT_EQ(fs.getattr(*id)->mtime, now);
}

TEST(MemFs, MaterializedBytesTracksRealData) {
  MemFs fs;
  ASSERT_OK(fs.put_file("/big", blob::make_synthetic(1, 100_MiB, 0.5, 2.0)));
  EXPECT_EQ(fs.materialized_bytes(), 0u);
  ASSERT_OK(fs.put_file("/small", bytes({1, 2, 3})));
  EXPECT_EQ(fs.materialized_bytes(), 3u);
}

// ------------------------------------------------------------ BufferCache --

TEST(BufferCache, HitAfterInsert) {
  sim::SimKernel k;
  BufferCache bc(64_KiB, 4_KiB);
  k.run_process("p", [&](sim::Process& p) {
    EXPECT_FALSE(bc.lookup(1, 0).has_value());
    bc.insert(p, 1, 0, bytes({1}), false);
    ASSERT_TRUE(bc.lookup(1, 0).has_value());
  });
  EXPECT_EQ(bc.hits(), 1u);
  EXPECT_EQ(bc.misses(), 1u);
}

TEST(BufferCache, LruEviction) {
  sim::SimKernel k;
  BufferCache bc(4 * 4_KiB, 4_KiB);  // 4 pages
  k.run_process("p", [&](sim::Process& p) {
    for (u64 i = 0; i < 5; ++i) bc.insert(p, 1, i, bytes({static_cast<u8>(i)}), false);
    EXPECT_FALSE(bc.lookup(1, 0).has_value());  // evicted
    EXPECT_TRUE(bc.lookup(1, 4).has_value());
  });
  EXPECT_EQ(bc.evictions(), 1u);
}

TEST(BufferCache, DirtyEvictionTriggersWriteback) {
  sim::SimKernel k;
  BufferCache bc(2 * 4_KiB, 4_KiB);
  std::vector<u64> written;
  bc.set_writeback([&](sim::Process&, u64, u64 page, const blob::BlobRef&) {
    written.push_back(page);
  });
  k.run_process("p", [&](sim::Process& p) {
    bc.insert(p, 1, 0, bytes({1}), true);
    bc.insert(p, 1, 1, bytes({2}), false);
    bc.insert(p, 1, 2, bytes({3}), false);  // evicts dirty page 0
  });
  EXPECT_EQ(written, (std::vector<u64>{0}));
  EXPECT_EQ(bc.dirty_pages(), 0u);
}

TEST(BufferCache, CleanRefillDoesNotClobberDirty) {
  sim::SimKernel k;
  BufferCache bc(64_KiB, 4_KiB);
  k.run_process("p", [&](sim::Process& p) {
    bc.insert(p, 1, 0, bytes({9}), true);
    bc.insert(p, 1, 0, bytes({1}), false);  // stale clean refill
    auto got = bc.lookup(1, 0);
    std::vector<u8> buf(1);
    (*got)->read(0, buf);
    EXPECT_EQ(buf[0], 9);  // dirty data preserved
  });
  EXPECT_EQ(bc.dirty_pages(), 1u);
}

TEST(BufferCache, FlushWritesInOrderAndCleans) {
  sim::SimKernel k;
  BufferCache bc(64_KiB, 4_KiB);
  std::vector<u64> written;
  bc.set_writeback([&](sim::Process&, u64, u64 page, const blob::BlobRef&) {
    written.push_back(page);
  });
  k.run_process("p", [&](sim::Process& p) {
    bc.insert(p, 1, 3, bytes({1}), true);
    bc.insert(p, 1, 1, bytes({1}), true);
    bc.insert(p, 2, 0, bytes({1}), true);
    EXPECT_EQ(bc.flush(p, 1), 2u);
    EXPECT_EQ(bc.dirty_pages(), 1u);  // file 2 still dirty
    EXPECT_EQ(bc.flush(p), 1u);
  });
  EXPECT_EQ(written, (std::vector<u64>{1, 3, 0}));
}

TEST(BufferCache, DiscardDropsWithoutWriteback) {
  sim::SimKernel k;
  BufferCache bc(64_KiB, 4_KiB);
  int writebacks = 0;
  bc.set_writeback([&](sim::Process&, u64, u64, const blob::BlobRef&) { ++writebacks; });
  k.run_process("p", [&](sim::Process& p) {
    bc.insert(p, 1, 0, bytes({1}), true);
    bc.discard_file(1);
    EXPECT_FALSE(bc.lookup(1, 0).has_value());
  });
  EXPECT_EQ(writebacks, 0);
  EXPECT_EQ(bc.dirty_pages(), 0u);
}

TEST(BufferCache, DirtyFilesLists) {
  sim::SimKernel k;
  BufferCache bc(64_KiB, 4_KiB);
  k.run_process("p", [&](sim::Process& p) {
    bc.insert(p, 5, 0, bytes({1}), true);
    bc.insert(p, 3, 0, bytes({1}), true);
    bc.insert(p, 4, 0, bytes({1}), false);
  });
  EXPECT_EQ(bc.dirty_files(), (std::vector<u64>{3, 5}));
}

TEST(BufferCache, EvictionSurvivesLookupDuringYieldingWriteback) {
  sim::SimKernel k;
  BufferCache bc(2 * 4_KiB, 4_KiB);
  std::vector<u64> written;
  bc.set_writeback([&](sim::Process& p, u64, u64 page, const blob::BlobRef&) {
    written.push_back(page);
    p.delay(kMillisecond);
  });
  k.run_process("setup", [&](sim::Process& p) {
    bc.insert(p, 1, 0, bytes({10}), true);  // LRU tail: the next victim
    bc.insert(p, 1, 1, bytes({11}), true);
  });
  // The evictor writes page 0 back; half-way through, a reader touches it.
  k.spawn("evictor", [&](sim::Process& p) { bc.insert(p, 1, 2, bytes({12}), true); });
  k.spawn("reader", [&](sim::Process&) { EXPECT_TRUE(bc.lookup(1, 0).has_value()); },
          kMillisecond / 2);
  k.run();
  EXPECT_EQ(k.failed_processes(), 0) << k.failed_names_joined();
  EXPECT_EQ(written, (std::vector<u64>{0}));
  EXPECT_FALSE(bc.contains(1, 0));
  EXPECT_EQ(bc.resident_pages(), 2u);
  EXPECT_EQ(bc.dirty_pages(), 2u);
  EXPECT_EQ(bc.evictions(), 1u);
  k.run_process("after", [&](sim::Process& p) {
    auto got = bc.lookup(1, 1);
    ASSERT_TRUE(got.has_value());
    std::vector<u8> buf(1);
    (*got)->read(0, buf);
    EXPECT_EQ(buf[0], 11);
    EXPECT_EQ(bc.flush(p), 2u);
  });
  EXPECT_EQ(written, (std::vector<u64>{0, 1, 2}));
  EXPECT_EQ(bc.dirty_pages(), 0u);
}

TEST(BufferCache, EvictionKeepsPageRedirtiedDuringItsWriteback) {
  sim::SimKernel k;
  BufferCache bc(2 * 4_KiB, 4_KiB);
  std::vector<std::pair<u64, u8>> written;  // (page, first byte)
  bc.set_writeback([&](sim::Process& p, u64, u64 page, const blob::BlobRef& data) {
    std::vector<u8> buf(1);
    data->read(0, buf);
    written.emplace_back(page, buf[0]);
    p.delay(kMillisecond);
  });
  k.run_process("setup", [&](sim::Process& p) {
    bc.insert(p, 1, 0, bytes({1}), true);  // LRU tail: the next victim
    bc.insert(p, 1, 1, bytes({1}), false);
  });
  // The evictor writes page 0 back; half-way through, a writer re-dirties it.
  k.spawn("evictor", [&](sim::Process& p) { bc.insert(p, 1, 2, bytes({1}), false); });
  k.spawn("writer", [&](sim::Process& p) { bc.insert(p, 1, 0, bytes({2}), true); },
          kMillisecond / 2);
  k.run();
  EXPECT_EQ(k.failed_processes(), 0) << k.failed_names_joined();
  // The newer bytes stay dirty; the evictor took the clean page 1 instead.
  EXPECT_TRUE(bc.contains(1, 0));
  EXPECT_FALSE(bc.contains(1, 1));
  EXPECT_TRUE(bc.contains(1, 2));
  EXPECT_EQ(bc.dirty_pages(), 1u);
  EXPECT_EQ(bc.evictions(), 1u);
  k.run_process("flush", [&](sim::Process& p) { EXPECT_EQ(bc.flush(p), 1u); });
  EXPECT_EQ(written, (std::vector<std::pair<u64, u8>>{{0, 1}, {0, 2}}));
}

TEST(BufferCache, PageRedirtiedDuringWritebackStaysDirty) {
  sim::SimKernel k;
  BufferCache bc(64_KiB, 4_KiB);
  std::vector<std::pair<u64, u8>> written;  // (page, first byte)
  bc.set_writeback([&](sim::Process& p, u64, u64 page, const blob::BlobRef& data) {
    std::vector<u8> buf(1);
    data->read(0, buf);
    written.emplace_back(page, buf[0]);
    p.delay(kMillisecond);
  });
  k.run_process("setup", [&](sim::Process& p) {
    bc.insert(p, 1, 0, bytes({1}), true);
    bc.insert(p, 1, 1, bytes({1}), false);
  });
  k.spawn("invalidator", [&](sim::Process& p) { bc.invalidate_file(p, 1); });
  k.spawn("writer", [&](sim::Process& p) { bc.insert(p, 1, 0, bytes({2}), true); },
          kMillisecond / 2);
  k.run();
  EXPECT_EQ(k.failed_processes(), 0) << k.failed_names_joined();
  // The newer bytes were neither marked clean nor dropped.
  EXPECT_TRUE(bc.contains(1, 0));
  EXPECT_FALSE(bc.contains(1, 1));
  EXPECT_EQ(bc.dirty_pages(), 1u);
  k.run_process("flush", [&](sim::Process& p) { EXPECT_EQ(bc.flush(p), 1u); });
  EXPECT_EQ(written, (std::vector<std::pair<u64, u8>>{{0, 1}, {0, 2}}));
  EXPECT_EQ(bc.dirty_pages(), 0u);
}

// --------------------------------------------------------- LocalFsSession --

struct LocalFixture {
  sim::SimKernel kernel;
  MemFs fs;
  sim::DiskModel disk{kernel, "disk", sim::DiskConfig{}};
  LocalFsSession session{fs, disk};
};

TEST(LocalSession, CreateWriteReadBack) {
  LocalFixture f;
  f.kernel.run_process("p", [&](sim::Process& p) {
    ASSERT_TRUE(f.session.mkdirs(p, "/data").is_ok());
    ASSERT_TRUE(f.session.create(p, "/data/f").is_ok());
    auto content = blob::make_synthetic(1, 256_KiB, 0.2, 2.0);
    ASSERT_TRUE(f.session.write(p, "/data/f", 0, content).is_ok());
    auto back = f.session.read(p, "/data/f", 0, 256_KiB);
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(blob::content_hash(**back), blob::content_hash(*content));
  });
}

TEST(LocalSession, CachedRereadIsFaster) {
  LocalFixture f;
  f.kernel.run_process("p", [&](sim::Process& p) {
    ASSERT_OK(f.session.mkdirs(p, "/d"));
    ASSERT_OK(f.session.create(p, "/d/f"));
    ASSERT_OK(f.session.write(p, "/d/f", 0, blob::make_synthetic(2, 1_MiB, 0.2, 2.0)));
    ASSERT_OK(f.session.flush(p));
    f.session.drop_caches();
    SimTime t0 = p.now();
    ASSERT_OK(f.session.read(p, "/d/f", 0, 1_MiB));
    SimTime cold = p.now() - t0;
    t0 = p.now();
    ASSERT_OK(f.session.read(p, "/d/f", 0, 1_MiB));
    SimTime warm = p.now() - t0;
    EXPECT_LT(warm * 10, cold);  // page-cache hit is >10x faster
  });
}

TEST(LocalSession, WritesStageThenFlushCharges) {
  LocalFixture f;
  f.kernel.run_process("p", [&](sim::Process& p) {
    ASSERT_OK(f.session.create(p, "/f"));
    SimTime t0 = p.now();
    ASSERT_OK(f.session.write(p, "/f", 0, blob::make_synthetic(3, 4_MiB, 0.0, 1.5)));
    SimTime staged = p.now() - t0;
    t0 = p.now();
    ASSERT_OK(f.session.flush(p));
    SimTime flushed = p.now() - t0;
    EXPECT_LT(staged, flushed);  // cost lands at flush (write-behind)
    EXPECT_GT(flushed, from_millis(50));
  });
}

TEST(LocalSession, StatTruncateRemove) {
  LocalFixture f;
  f.kernel.run_process("p", [&](sim::Process& p) {
    ASSERT_OK(f.session.create(p, "/f"));
    ASSERT_OK(f.session.write(p, "/f", 0, blob::make_zero(100)));
    EXPECT_EQ(f.session.stat(p, "/f")->size, 100u);
    ASSERT_OK(f.session.truncate(p, "/f", 10));
    EXPECT_EQ(f.session.stat(p, "/f")->size, 10u);
    ASSERT_TRUE(f.session.remove(p, "/f").is_ok());
    EXPECT_EQ(f.session.stat(p, "/f").code(), ErrCode::kNoEnt);
  });
}

TEST(LocalSession, SymlinkAndList) {
  LocalFixture f;
  f.kernel.run_process("p", [&](sim::Process& p) {
    ASSERT_OK(f.session.mkdirs(p, "/d"));
    ASSERT_OK(f.session.create(p, "/d/a"));
    ASSERT_OK(f.session.symlink(p, "/d/l", "/d/a"));
    auto entries = f.session.list(p, "/d");
    ASSERT_TRUE(entries.is_ok());
    EXPECT_EQ(entries->size(), 2u);
  });
}

TEST(LocalSession, ReadAllAndPutHelpers) {
  LocalFixture f;
  f.kernel.run_process("p", [&](sim::Process& p) {
    auto content = blob::make_synthetic(4, 64_KiB, 0.1, 2.0);
    ASSERT_TRUE(f.session.put(p, "/a/b/c", content).is_ok());
    auto back = f.session.read_all(p, "/a/b/c");
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(blob::content_hash(**back), blob::content_hash(*content));
  });
}

}  // namespace
}  // namespace gvfs::vfs
