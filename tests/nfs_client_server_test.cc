// End-to-end kernel NFS client <-> kernel NFS server tests over a loopback
// channel: mounting, data integrity, caching behaviours (page cache, attr
// TTL, dentry cache), write staging + close-to-open flushes, and the
// metadata procedures.
#include <gtest/gtest.h>

#include "test_util.h"

#include "blob/blob.h"
#include "nfs/nfs_client.h"
#include "nfs/nfs_server.h"
#include "sim/kernel.h"

namespace gvfs::nfs {
namespace {

struct Fixture {
  sim::SimKernel kernel;
  vfs::MemFs fs;
  sim::DiskModel disk{kernel, "sdisk", sim::DiskConfig{}};
  NfsServer server{kernel, fs, disk, NfsServerConfig{}};
  rpc::LinkChannel loop{server, nullptr, nullptr, 10 * kMicrosecond};
  rpc::Credential cred;
  NfsClientConfig ccfg;

  Fixture() {
    cred.uid = 1000;
    cred.gid = 1000;
    EXPECT_TRUE(server.add_export("/exports").is_ok());
  }

  std::unique_ptr<NfsClient> make_client() {
    return std::make_unique<NfsClient>(loop, cred, ccfg);
  }

  void run(std::function<void(sim::Process&, NfsClient&)> body) {
    auto client = make_client();
    kernel.run_process("test", [&](sim::Process& p) {
      ASSERT_TRUE(client->mount(p, "/exports").is_ok());
      body(p, *client);
    });
    EXPECT_EQ(kernel.failed_processes(), 0) << kernel.failed_names_joined();
  }
};

TEST(NfsClientServer, MountSucceedsAndNegotiates) {
  Fixture f;
  f.run([](sim::Process&, NfsClient& c) { EXPECT_TRUE(c.mounted()); });
}

TEST(NfsClientServer, MountUnknownExportFails) {
  Fixture f;
  auto client = f.make_client();
  f.kernel.run_process("t", [&](sim::Process& p) {
    EXPECT_FALSE(client->mount(p, "/nope").is_ok());
    EXPECT_FALSE(client->mounted());
  });
}

TEST(NfsClientServer, WriteFlushReadBackIntegrity) {
  Fixture f;
  auto content = blob::make_synthetic(11, 300_KiB, 0.2, 2.0);
  f.run([&](sim::Process& p, NfsClient& c) {
    ASSERT_TRUE(c.create(p, "/data.bin").is_ok());
    ASSERT_TRUE(c.write(p, "/data.bin", 0, content).is_ok());
    ASSERT_TRUE(c.flush(p).is_ok());
    auto back = c.read(p, "/data.bin", 0, 300_KiB);
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(blob::content_hash(**back), blob::content_hash(*content));
  });
  // Server-side content matches too.
  auto server_side = f.fs.get_file("/exports/data.bin");
  ASSERT_TRUE(server_side.is_ok());
  EXPECT_EQ(blob::content_hash(**server_side), blob::content_hash(*content));
}

TEST(NfsClientServer, ReadOfServerInstalledFile) {
  Fixture f;
  auto content = blob::make_synthetic(12, 1_MiB, 0.5, 3.0);
  ASSERT_TRUE(f.fs.put_file("/exports/img.bin", content).is_ok());
  f.run([&](sim::Process& p, NfsClient& c) {
    auto back = c.read_all(p, "/img.bin");
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ((*back)->size(), 1_MiB);
    EXPECT_EQ(blob::content_hash(**back), blob::content_hash(*content));
  });
}

TEST(NfsClientServer, StagedWritesVisibleBeforeFlush) {
  Fixture f;
  f.run([&](sim::Process& p, NfsClient& c) {
    ASSERT_TRUE(c.create(p, "/f").is_ok());
    ASSERT_TRUE(c.write(p, "/f", 0, blob::make_bytes(std::vector<u8>{1, 2, 3})).is_ok());
    // Not flushed yet: server doesn't have the bytes...
    EXPECT_EQ((*f.fs.get_file("/exports/f"))->size(), 0u);
    // ...but the client sees its own staged data.
    auto back = c.read(p, "/f", 0, 3);
    ASSERT_TRUE(back.is_ok());
    std::vector<u8> buf(3);
    (*back)->read(0, buf);
    EXPECT_EQ(buf, (std::vector<u8>{1, 2, 3}));
    EXPECT_EQ(c.stat(p, "/f")->size, 3u);
  });
}

TEST(NfsClientServer, CloseFlushesOneFile) {
  Fixture f;
  f.run([&](sim::Process& p, NfsClient& c) {
    ASSERT_TRUE(c.create(p, "/a").is_ok());
    ASSERT_TRUE(c.create(p, "/b").is_ok());
    ASSERT_OK(c.write(p, "/a", 0, blob::make_bytes(std::vector<u8>{1})));
    ASSERT_OK(c.write(p, "/b", 0, blob::make_bytes(std::vector<u8>{2})));
    ASSERT_TRUE(c.close(p, "/a").is_ok());
    EXPECT_EQ((*f.fs.get_file("/exports/a"))->size(), 1u);
    EXPECT_EQ((*f.fs.get_file("/exports/b"))->size(), 0u);  // still staged
  });
}

TEST(NfsClientServer, PageCacheAvoidsSecondFetch) {
  Fixture f;
  ASSERT_TRUE(f.fs.put_file("/exports/r", blob::make_synthetic(3, 64_KiB, 0, 2.0)).is_ok());
  f.run([&](sim::Process& p, NfsClient& c) {
    ASSERT_OK(c.read(p, "/r", 0, 64_KiB));
    u64 reads_after_first = c.rpcs_sent(Proc::kRead);
    ASSERT_OK(c.read(p, "/r", 0, 64_KiB));
    EXPECT_EQ(c.rpcs_sent(Proc::kRead), reads_after_first);  // all cached
  });
}

TEST(NfsClientServer, DropCachesForcesRefetch) {
  Fixture f;
  ASSERT_TRUE(f.fs.put_file("/exports/r", blob::make_synthetic(4, 32_KiB, 0, 2.0)).is_ok());
  f.run([&](sim::Process& p, NfsClient& c) {
    ASSERT_OK(c.read(p, "/r", 0, 32_KiB));
    u64 first = c.rpcs_sent(Proc::kRead);
    c.drop_caches();
    ASSERT_OK(c.read(p, "/r", 0, 32_KiB));
    EXPECT_EQ(c.rpcs_sent(Proc::kRead), 2 * first);
  });
}

TEST(NfsClientServer, AttrCacheRespectsTtl) {
  Fixture f;
  ASSERT_TRUE(f.fs.put_file("/exports/r", blob::make_zero(10)).is_ok());
  f.ccfg.attr_cache_ttl = 10 * kSecond;
  f.run([&](sim::Process& p, NfsClient& c) {
    ASSERT_OK(c.stat(p, "/r"));
    u64 getattrs = c.rpcs_sent(Proc::kGetattr);
    ASSERT_OK(c.stat(p, "/r"));  // within TTL: cached
    EXPECT_EQ(c.rpcs_sent(Proc::kGetattr), getattrs);
    p.delay(11 * kSecond);
    ASSERT_OK(c.stat(p, "/r"));  // expired: refetch
    EXPECT_EQ(c.rpcs_sent(Proc::kGetattr), getattrs + 1);
  });
}

TEST(NfsClientServer, DentryCacheAvoidsRepeatedLookups) {
  Fixture f;
  ASSERT_TRUE(f.fs.mkdirs("/exports/a/b").is_ok());
  ASSERT_TRUE(f.fs.put_file("/exports/a/b/f", blob::make_zero(1)).is_ok());
  f.run([&](sim::Process& p, NfsClient& c) {
    ASSERT_OK(c.stat(p, "/a/b/f"));
    u64 lookups = c.rpcs_sent(Proc::kLookup);
    EXPECT_EQ(lookups, 3u);
    ASSERT_OK(c.stat(p, "/a/b/f"));
    EXPECT_EQ(c.rpcs_sent(Proc::kLookup), lookups);
  });
}

TEST(NfsClientServer, MkdirsCreatesChain) {
  Fixture f;
  f.run([&](sim::Process& p, NfsClient& c) {
    ASSERT_TRUE(c.mkdirs(p, "/x/y/z").is_ok());
    EXPECT_TRUE(f.fs.exists("/exports/x/y/z"));
    // Idempotent.
    ASSERT_TRUE(c.mkdirs(p, "/x/y/z").is_ok());
  });
}

TEST(NfsClientServer, RemoveAndNegativeStat) {
  Fixture f;
  ASSERT_TRUE(f.fs.put_file("/exports/gone", blob::make_zero(5)).is_ok());
  f.run([&](sim::Process& p, NfsClient& c) {
    ASSERT_TRUE(c.stat(p, "/gone").is_ok());
    ASSERT_TRUE(c.remove(p, "/gone").is_ok());
    EXPECT_FALSE(f.fs.exists("/exports/gone"));
    EXPECT_FALSE(c.stat(p, "/gone").is_ok());
  });
}

TEST(NfsClientServer, TruncateDiscardsStagedData) {
  Fixture f;
  f.run([&](sim::Process& p, NfsClient& c) {
    ASSERT_TRUE(c.create(p, "/t").is_ok());
    ASSERT_OK(c.write(p, "/t", 0, blob::make_bytes(std::vector<u8>(100, 7))));
    ASSERT_TRUE(c.truncate(p, "/t", 0).is_ok());
    ASSERT_TRUE(c.flush(p).is_ok());
    EXPECT_EQ((*f.fs.get_file("/exports/t"))->size(), 0u);
    EXPECT_EQ(c.stat(p, "/t")->size, 0u);
  });
}

// Regression: truncate used to discard every staged page of the file, so
// bytes written below the new size (already acknowledged to the writer)
// never reached the server, which kept zeros there. Only pages at or past
// the new size are dropped now; the page straddling it is trimmed.
TEST(NfsClientServer, TruncateKeepsStagedDataBelowNewSize) {
  Fixture f;
  auto content = blob::make_synthetic(17, 64_KiB, 0, 2.0);
  const u64 cut = 48_KiB + 100;  // not page-aligned: one page is trimmed
  f.run([&](sim::Process& p, NfsClient& c) {
    ASSERT_TRUE(c.create(p, "/t").is_ok());
    ASSERT_OK(c.write(p, "/t", 0, content));
    ASSERT_OK(c.truncate(p, "/t", cut));
    ASSERT_OK(c.flush(p));
  });
  auto file = f.fs.get_file("/exports/t");
  ASSERT_TRUE(file.is_ok());
  ASSERT_EQ((*file)->size(), cut);
  EXPECT_EQ(blob::content_hash(**file), blob::content_hash(blob::SliceBlob(content, 0, cut)));
}

TEST(NfsClientServer, TruncateToZeroSendsOnlySetattr) {
  Fixture f;
  f.run([&](sim::Process& p, NfsClient& c) {
    ASSERT_TRUE(c.create(p, "/t").is_ok());
    ASSERT_OK(c.write(p, "/t", 0, blob::make_synthetic(18, 64_KiB, 0, 2.0)));
    u64 calls_before = f.server.total_calls();
    ASSERT_OK(c.truncate(p, "/t", 0));
    ASSERT_OK(c.flush(p));  // nothing staged survives a truncate to zero
    EXPECT_EQ(f.server.total_calls(), calls_before + 1);
  });
  EXPECT_EQ((*f.fs.get_file("/exports/t"))->size(), 0u);
}

TEST(NfsClientServer, SymlinkCreated) {
  Fixture f;
  f.run([&](sim::Process& p, NfsClient& c) {
    ASSERT_TRUE(c.symlink(p, "/lnk", "/exports/target").is_ok());
    auto id = f.fs.resolve("/exports");
    auto lid = f.fs.lookup(*id, "lnk");
    ASSERT_TRUE(lid.is_ok());
    EXPECT_EQ(*f.fs.readlink(*lid), "/exports/target");
  });
}

TEST(NfsClientServer, ListDirectory) {
  Fixture f;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        f.fs.put_file("/exports/dir/file" + std::to_string(i), blob::make_zero(1)).is_ok());
  }
  f.run([&](sim::Process& p, NfsClient& c) {
    auto entries = c.list(p, "/dir");
    ASSERT_TRUE(entries.is_ok());
    EXPECT_EQ(entries->size(), 40u);
  });
}

TEST(NfsClientServer, PartialPageWritePreservesNeighbourhood) {
  Fixture f;
  std::vector<u8> base(8_KiB);
  for (std::size_t i = 0; i < base.size(); ++i) base[i] = static_cast<u8>(i);
  ASSERT_TRUE(f.fs.put_file("/exports/rmw", blob::make_bytes(base)).is_ok());
  f.run([&](sim::Process& p, NfsClient& c) {
    // Overwrite 10 bytes in the middle of the second page.
    ASSERT_TRUE(
        c.write(p, "/rmw", 5000, blob::make_bytes(std::vector<u8>(10, 0xee))).is_ok());
    ASSERT_TRUE(c.flush(p).is_ok());
  });
  auto after = f.fs.get_file("/exports/rmw");
  std::vector<u8> got(8_KiB);
  (*after)->read(0, got);
  for (std::size_t i = 0; i < got.size(); ++i) {
    u8 expect = (i >= 5000 && i < 5010) ? 0xee : static_cast<u8>(i);
    ASSERT_EQ(got[i], expect) << "at " << i;
  }
}

TEST(NfsClientServer, DirtyLimitForcesWriteback) {
  Fixture f;
  f.ccfg.dirty_limit_bytes = 64_KiB;
  f.run([&](sim::Process& p, NfsClient& c) {
    ASSERT_TRUE(c.create(p, "/big").is_ok());
    ASSERT_TRUE(c.write(p, "/big", 0, blob::make_synthetic(5, 256_KiB, 0, 2.0)).is_ok());
    // Staging limit forced at least one WRITE before any flush call.
    EXPECT_GT(c.rpcs_sent(Proc::kWrite), 0u);
  });
}

TEST(NfsClientServer, PageRedirtiedDuringFlushIsNotLost) {
  // The flusher's WRITE of v1 yields for 10 ms; a second process writes v2 to
  // the same page 5 ms in. Marking the page clean after the WRITE would leave
  // v2 staged-but-clean, so the writer's close() would send nothing.
  Fixture f;
  rpc::LinkChannel slow{f.server, nullptr, nullptr, 10 * kMillisecond};
  NfsClient c(slow, f.cred, f.ccfg);
  auto v1 = blob::make_bytes(std::vector<u8>(4_KiB, 1));
  auto v2 = blob::make_bytes(std::vector<u8>(4_KiB, 2));
  f.kernel.run_process("setup", [&](sim::Process& p) {
    ASSERT_OK(c.mount(p, "/exports"));
    ASSERT_OK(c.create(p, "/f"));
    ASSERT_OK(c.write(p, "/f", 0, v1));
  });
  f.kernel.spawn("flusher", [&](sim::Process& p) { EXPECT_OK(c.flush(p)); });
  f.kernel.spawn(
      "writer",
      [&](sim::Process& p) {
        EXPECT_OK(c.write(p, "/f", 0, v2));
        p.delay(100 * kMillisecond);  // past the flusher's WRITE and COMMIT
        EXPECT_OK(c.close(p, "/f"));
      },
      5 * kMillisecond);
  f.kernel.run();
  EXPECT_EQ(f.kernel.failed_processes(), 0) << f.kernel.failed_names_joined();
  EXPECT_EQ(c.page_cache().dirty_pages(), 0u);
  auto server_side = f.fs.get_file("/exports/f");
  ASSERT_OK(server_side);
  ASSERT_EQ((*server_side)->size(), 4_KiB);
  std::vector<u8> buf(1);
  (*server_side)->read(0, buf);
  EXPECT_EQ(buf[0], 2);
}

TEST(NfsClientServer, AppendGrowsFile) {
  Fixture f;
  f.run([&](sim::Process& p, NfsClient& c) {
    ASSERT_TRUE(c.create(p, "/log").is_ok());
    for (int i = 0; i < 5; ++i) {
      u64 size = c.stat(p, "/log")->size;
      ASSERT_TRUE(
          c.write(p, "/log", size, blob::make_bytes(std::vector<u8>(1000, 1))).is_ok());
    }
    EXPECT_EQ(c.stat(p, "/log")->size, 5000u);
    ASSERT_TRUE(c.flush(p).is_ok());
    EXPECT_EQ((*f.fs.get_file("/exports/log"))->size(), 5000u);
  });
}

TEST(NfsClientServer, AuthRequiredByServer) {
  Fixture f;
  f.cred.flavor = rpc::AuthFlavor::kNone;
  auto client = f.make_client();
  f.kernel.run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(client->mount(p, "/exports").is_ok());  // MOUNT prog exempt
    EXPECT_FALSE(client->stat(p, "/x").is_ok());        // NFS prog rejected
  });
}

TEST(NfsClientServer, ServerAuthorizerPolicy) {
  Fixture f;
  f.server.set_authorizer(
      [](const rpc::Credential& c) { return c.uid == 1000; });
  f.run([&](sim::Process& p, NfsClient& c) {
    ASSERT_TRUE(c.create(p, "/allowed").is_ok());
  });
  f.cred.uid = 666;
  auto bad = f.make_client();
  f.kernel.run_process("t", [&](sim::Process& p) {
    EXPECT_FALSE(bad->mount(p, "/exports").is_ok());
  });
}

TEST(NfsClientServer, ServerCountsProcedures) {
  Fixture f;
  ASSERT_TRUE(f.fs.put_file("/exports/r", blob::make_zero(64_KiB)).is_ok());
  f.run([&](sim::Process& p, NfsClient& c) {
    ASSERT_OK(c.read(p, "/r", 0, 64_KiB));
  });
  EXPECT_GT(f.server.calls(Proc::kRead), 0u);
  EXPECT_GT(f.server.calls(Proc::kLookup), 0u);
  EXPECT_GT(f.server.total_calls(), 0u);
}

// Regression: the server counted MOUNT calls under the NFS procedure with
// the same number, so each MNT read as a GETATTR and each UMNT as a LOOKUP.
TEST(NfsClientServer, ServerProcCountsMatchClient) {
  Fixture f;
  ASSERT_TRUE(f.fs.put_file("/exports/r", blob::make_zero(64_KiB)).is_ok());
  auto client = f.make_client();
  f.kernel.run_process("t", [&](sim::Process& p) {
    ASSERT_OK(client->mount(p, "/exports"));
    ASSERT_OK(client->read(p, "/r", 0, 64_KiB));
    ASSERT_OK(client->write(p, "/r", 8_KiB, blob::make_synthetic(3, 16_KiB, 0, 2.0)));
    ASSERT_OK(client->flush(p));
  });
  EXPECT_EQ(f.kernel.failed_processes(), 0) << f.kernel.failed_names_joined();
  for (u32 n = 0; n < kNfsProcs.size(); ++n) {
    auto proc = static_cast<Proc>(n);
    EXPECT_EQ(f.server.calls(proc), client->rpcs_sent(proc)) << proc_name(proc);
  }
  EXPECT_GT(client->rpcs_sent(Proc::kWrite), 0u);
}

TEST(NfsClientServer, WanLatencyDominatesColdReads) {
  // Sanity-check the scenario math: 8 KiB reads over a 40 ms RTT pipe come
  // in at ~22 reads/s, the effect behind the paper's 2060 s plain-NFS clone.
  sim::SimKernel kernel;
  vfs::MemFs fs;
  sim::DiskModel disk{kernel, "d", sim::DiskConfig{}};
  NfsServer server{kernel, fs, disk, NfsServerConfig{}};
  ASSERT_TRUE(server.add_export("/exports").is_ok());
  ASSERT_TRUE(fs.put_file("/exports/mem", blob::make_synthetic(1, 4_MiB, 0.9, 3.0)).is_ok());
  sim::LinkConfig wan{from_millis(20), 12.0 * 1_MiB, 64_KiB, 0};
  sim::Link up(kernel, "up", wan), down(kernel, "down", wan);
  rpc::LinkChannel ch(server, &up, &down, 30 * kMicrosecond);
  rpc::Credential cred;
  NfsClientConfig cfg;
  cfg.rsize = cfg.wsize = 8_KiB;
  NfsClient client(ch, cred, cfg);
  SimTime elapsed = 0;
  kernel.run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(client.mount(p, "/exports").is_ok());
    SimTime t0 = p.now();
    ASSERT_OK(client.read_all(p, "/mem"));
    elapsed = p.now() - t0;
  });
  // 512 sequential reads * ~41 ms => ~21 s; allow generous bounds.
  EXPECT_GT(to_seconds(elapsed), 15.0);
  EXPECT_LT(to_seconds(elapsed), 30.0);
}

}  // namespace
}  // namespace gvfs::nfs
