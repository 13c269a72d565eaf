// GVFS proxy tests: block-cache read path, write-back absorption and
// middleware-signalled flushes, COMMIT absorption, attribute overrides,
// credential mapping (logical user accounts), meta-data discovery
// (zero-block filtering + file channel), truncation coherence, and
// multi-level proxy cascades.
#include <gtest/gtest.h>

#include "test_util.h"

#include "cache/block_cache.h"
#include "cache/file_cache.h"
#include "meta/file_channel.h"
#include "meta/meta_file.h"
#include "nfs/nfs_client.h"
#include "nfs/nfs_server.h"
#include "proxy/gvfs_proxy.h"
#include "sim/kernel.h"
#include "ssh/ssh.h"

namespace gvfs::proxy {
namespace {

struct ProxyFixture {
  sim::SimKernel kernel;
  // Image server.
  vfs::MemFs server_fs;
  sim::DiskModel server_disk{kernel, "sd", sim::DiskConfig{}};
  sim::CpuPool server_cpu{kernel, 2};
  nfs::NfsServer server{kernel, server_fs, server_disk, nfs::NfsServerConfig{}};
  rpc::LinkChannel server_loop{server, nullptr, nullptr, 10 * kMicrosecond};
  GvfsProxy server_proxy{make_server_proxy_cfg(), server_loop};
  meta::ServerFileChannel endpoint{server_fs, server_disk, &server_cpu};
  // WAN.
  sim::Link wan_up{kernel, "up", sim::LinkConfig{from_millis(20), 12.0 * 1_MiB, 64_KiB, 0}};
  sim::Link wan_down{kernel, "down", sim::LinkConfig{from_millis(20), 12.0 * 1_MiB, 64_KiB, 0}};
  ssh::SshTunnel tunnel{server_proxy, &wan_up, &wan_down, ssh::CipherSpec{}};
  // Client side.
  sim::DiskModel client_disk{kernel, "cd", sim::DiskConfig{}};
  cache::ProxyDiskCache block_cache{client_disk, small_cache_cfg()};
  cache::FileCache file_cache{client_disk};
  ssh::Scp scp{wan_down, ssh::CipherSpec{}};
  meta::FileChannelClient channel{endpoint, scp, file_cache};
  GvfsProxy client_proxy{make_client_proxy_cfg(), tunnel};
  rpc::LinkChannel loop{client_proxy, nullptr, nullptr, 15 * kMicrosecond};
  nfs::NfsClient client{loop, make_cred(), make_client_cfg()};

  static ProxyConfig make_server_proxy_cfg() {
    ProxyConfig cfg;
    cfg.name = "server-proxy";
    cfg.enable_meta = false;
    return cfg;
  }
  static ProxyConfig make_client_proxy_cfg() {
    ProxyConfig cfg;
    cfg.name = "client-proxy";
    return cfg;
  }
  static cache::BlockCacheConfig small_cache_cfg() {
    cache::BlockCacheConfig cfg;
    cfg.capacity_bytes = 64_MiB;
    cfg.block_size = 32_KiB;
    cfg.num_banks = 8;
    cfg.associativity = 8;
    return cfg;
  }
  static rpc::Credential make_cred() {
    rpc::Credential c;
    c.uid = 1234;
    c.gid = 1234;
    return c;
  }
  static nfs::NfsClientConfig make_client_cfg() {
    nfs::NfsClientConfig cfg;
    cfg.rsize = cfg.wsize = 32_KiB;
    return cfg;
  }

  ProxyFixture() {
    EXPECT_TRUE(server.add_export("/exports").is_ok());
    client_proxy.attach_block_cache(block_cache);
    client_proxy.attach_file_channel(channel, file_cache);
  }

  void run(std::function<void(sim::Process&)> body) {
    kernel.run_process("t", [&](sim::Process& p) {
      ASSERT_TRUE(client.mount(p, "/exports").is_ok());
      body(p);
    });
    EXPECT_EQ(kernel.failed_processes(), 0) << kernel.failed_names_joined();
  }
};

TEST(Proxy, ReadThroughCachesBlocks) {
  ProxyFixture f;
  auto content = blob::make_synthetic(1, 256_KiB, 0.3, 2.0);
  ASSERT_TRUE(f.server_fs.put_file("/exports/data", content).is_ok());
  f.run([&](sim::Process& p) {
    auto back = f.client.read_all(p, "/data");
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(blob::content_hash(**back), blob::content_hash(*content));
  });
  EXPECT_GT(f.block_cache.resident_blocks(), 0u);
}

TEST(Proxy, SecondColdClientReadHitsProxyCache) {
  ProxyFixture f;
  ASSERT_TRUE(
      f.server_fs.put_file("/exports/data", blob::make_synthetic(2, 512_KiB, 0, 2.0)).is_ok());
  f.run([&](sim::Process& p) {
    ASSERT_OK(f.client.read_all(p, "/data"));
    u64 upstream_after_first = f.tunnel.messages();
    // Client page cache dropped (fresh session) but proxy cache kept: the
    // re-read must be served from the proxy disk cache, not the WAN.
    f.client.drop_caches();
    SimTime t0 = p.now();
    auto back = f.client.read_all(p, "/data");
    ASSERT_TRUE(back.is_ok());
    SimTime warm = p.now() - t0;
    EXPECT_LE(f.tunnel.messages(), upstream_after_first + 4);  // attr refresh only
    EXPECT_LT(to_seconds(warm), 0.5);
    EXPECT_GT(f.client_proxy.reads_served_from_block_cache(), 0u);
  });
}

TEST(Proxy, WriteBackAbsorbsWritesLocally) {
  ProxyFixture f;
  ASSERT_TRUE(f.server_fs.put_file("/exports/f", blob::make_zero(64_KiB)).is_ok());
  f.run([&](sim::Process& p) {
    u64 upstream_before = f.tunnel.messages();
    // Aligned full-block write: absorbed entirely by the proxy cache.
    ASSERT_TRUE(
        f.client.write(p, "/f", 0, blob::make_synthetic(3, 64_KiB, 0, 2.0)).is_ok());
    ASSERT_TRUE(f.client.flush(p).is_ok());
    EXPECT_GT(f.client_proxy.writes_absorbed(), 0u);
    EXPECT_EQ(f.block_cache.dirty_blocks(), 2u);
    // Server content unchanged until the middleware signal.
    EXPECT_TRUE((*f.server_fs.get_file("/exports/f"))->is_zero_range(0, 64_KiB));
    (void)upstream_before;
  });
}

TEST(Proxy, SignalWriteBackPushesDirtyUpstream) {
  ProxyFixture f;
  ASSERT_TRUE(f.server_fs.put_file("/exports/f", blob::make_zero(64_KiB)).is_ok());
  auto content = blob::make_synthetic(4, 64_KiB, 0, 2.0);
  f.run([&](sim::Process& p) {
    ASSERT_TRUE(f.client.write(p, "/f", 0, content).is_ok());
    ASSERT_TRUE(f.client.flush(p).is_ok());
    ASSERT_TRUE(f.client_proxy.signal_write_back(p).is_ok());
    EXPECT_EQ(f.block_cache.dirty_blocks(), 0u);
  });
  EXPECT_EQ(blob::content_hash(**f.server_fs.get_file("/exports/f")),
            blob::content_hash(*content));
}

TEST(Proxy, ReadYourOwnWriteBeforeWriteBack) {
  ProxyFixture f;
  ASSERT_TRUE(f.server_fs.put_file("/exports/f", blob::make_zero(64_KiB)).is_ok());
  auto content = blob::make_synthetic(5, 64_KiB, 0, 2.0);
  f.run([&](sim::Process& p) {
    ASSERT_OK(f.client.write(p, "/f", 0, content));
    ASSERT_OK(f.client.flush(p));
    f.client.drop_caches();  // force re-read through the proxy
    auto back = f.client.read_all(p, "/f");
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(blob::content_hash(**back), blob::content_hash(*content));
  });
}

TEST(Proxy, PartialWriteMergesWithUpstreamData) {
  ProxyFixture f;
  std::vector<u8> base(64_KiB);
  for (std::size_t i = 0; i < base.size(); ++i) base[i] = static_cast<u8>(i / 256);
  ASSERT_TRUE(f.server_fs.put_file("/exports/f", blob::make_bytes(base)).is_ok());
  f.run([&](sim::Process& p) {
    ASSERT_TRUE(
        f.client.write(p, "/f", 40000, blob::make_bytes(std::vector<u8>(100, 0xee))).is_ok());
    ASSERT_TRUE(f.client.flush(p).is_ok());
    ASSERT_TRUE(f.client_proxy.signal_write_back(p).is_ok());
  });
  std::vector<u8> got(64_KiB);
  (*f.server_fs.get_file("/exports/f"))->read(0, got);
  for (std::size_t i = 0; i < got.size(); ++i) {
    u8 expect = (i >= 40000 && i < 40100) ? 0xee : static_cast<u8>(i / 256);
    ASSERT_EQ(got[i], expect) << "at " << i;
  }
}

TEST(Proxy, GrowingWriteExtendsSizeInGetattr) {
  ProxyFixture f;
  ASSERT_TRUE(f.server_fs.put_file("/exports/f", blob::make_zero(10_KiB)).is_ok());
  f.run([&](sim::Process& p) {
    ASSERT_TRUE(
        f.client.write(p, "/f", 100_KiB, blob::make_synthetic(6, 8_KiB, 0, 2.0)).is_ok());
    ASSERT_TRUE(f.client.flush(p).is_ok());
    f.client.drop_caches();
    auto a = f.client.stat(p, "/f");
    ASSERT_TRUE(a.is_ok());
    EXPECT_EQ(a->size, 108_KiB);  // proxy size override, pre-writeback
  });
}

TEST(Proxy, CommitAbsorbedInWriteBackMode) {
  ProxyFixture f;
  ASSERT_TRUE(f.server_fs.put_file("/exports/f", blob::make_zero(32_KiB)).is_ok());
  f.run([&](sim::Process& p) {
    ASSERT_OK(f.client.write(p, "/f", 0, blob::make_synthetic(7, 32_KiB, 0, 2.0)));
    u64 upstream_before = f.tunnel.messages();
    ASSERT_TRUE(f.client.flush(p).is_ok());  // WRITE + COMMIT toward proxy
    // Neither the WRITE nor the COMMIT crossed the WAN.
    EXPECT_EQ(f.tunnel.messages(), upstream_before);
  });
}

TEST(Proxy, CredentialsMappedToShadowAccount) {
  ProxyFixture f;
  f.server_proxy.set_cred_mapper([](const rpc::Credential& in) {
    rpc::Credential out = in;
    out.uid = 500;
    out.gid = 500;
    return out;
  });
  f.run([&](sim::Process& p) {
    ASSERT_TRUE(f.client.create(p, "/newfile").is_ok());
  });
  auto id = f.server_fs.resolve("/exports/newfile");
  ASSERT_TRUE(id.is_ok());
  EXPECT_EQ(f.server_fs.getattr(*id)->uid, 500u);  // not 1234
}

TEST(Proxy, AuthorizerRejects) {
  ProxyFixture f;
  f.client_proxy.set_authorizer([](const rpc::Credential& c) { return c.uid != 1234; });
  f.kernel.run_process("t", [&](sim::Process& p) {
    EXPECT_FALSE(f.client.mount(p, "/exports").is_ok());
  });
}

TEST(Proxy, ZeroBlockFilteringServesLocally) {
  ProxyFixture f;
  // Memory-state-like file: mostly zeros, with a zero-map meta file but NO
  // file-channel actions (pure block path).
  auto mem = blob::make_synthetic(8, 2_MiB, 0.9, 3.0);
  ASSERT_TRUE(f.server_fs.put_file("/exports/vm.vmss", mem).is_ok());
  auto meta = meta::MetaFile::generate(*mem, 32_KiB);
  ASSERT_TRUE(
      f.server_fs.put_file("/exports/.vm.vmss.gvfsmeta", meta.serialize()).is_ok());
  f.run([&](sim::Process& p) {
    auto back = f.client.read_all(p, "/vm.vmss");
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(blob::content_hash(**back), blob::content_hash(*mem));  // integrity!
  });
  EXPECT_GT(f.client_proxy.zero_filtered_reads(), 0u);
  EXPECT_EQ(f.client_proxy.zero_filtered_reads(), meta.zero_block_count());
}

// A 2 MiB memory-state file (90 % zeros) with a 32 KiB zero map, and the
// offset of its first block the map calls zero.
struct ZeroMappedImage {
  blob::BlobRef mem = blob::make_synthetic(8, 2_MiB, 0.9, 3.0);
  meta::MetaFile meta = meta::MetaFile::generate(*mem, 32_KiB);
  u64 zero_off = 0;

  explicit ZeroMappedImage(ProxyFixture& f) {
    EXPECT_TRUE(f.server_fs.put_file("/exports/vm.vmss", mem).is_ok());
    EXPECT_TRUE(
        f.server_fs.put_file("/exports/.vm.vmss.gvfsmeta", meta.serialize()).is_ok());
    while (zero_off < mem->size() && !meta.range_is_zero(zero_off, 32_KiB)) {
      zero_off += 32_KiB;
    }
    EXPECT_LT(zero_off, mem->size());
  }
};

// Regression: the zero map describes the file as installed, yet it was
// consulted ahead of the block cache, so a block the session wrote where
// the map says zero read back as zeros: while dirty in the proxy cache,
// and again after write-back, with the written bytes on the origin.
TEST(Proxy, WriteIntoZeroMappedBlockReadsBack) {
  ProxyFixture f;
  ZeroMappedImage img(f);
  auto data = blob::make_synthetic(14, 32_KiB, 0, 2.0);
  f.run([&](sim::Process& p) {
    ASSERT_OK(f.client.write(p, "/vm.vmss", img.zero_off, data));
    ASSERT_OK(f.client.flush(p));
    f.client.drop_caches();
    auto dirty = f.client.read(p, "/vm.vmss", img.zero_off, 32_KiB);
    ASSERT_OK(dirty);
    EXPECT_EQ(blob::content_hash(**dirty), blob::content_hash(*data));

    ASSERT_OK(f.client_proxy.signal_write_back(p));
    auto file = f.server_fs.get_file("/exports/vm.vmss");
    ASSERT_OK(file);
    EXPECT_EQ(blob::range_hash(**file, img.zero_off, 32_KiB), blob::content_hash(*data));
    f.client.drop_caches();
    auto clean = f.client.read(p, "/vm.vmss", img.zero_off, 32_KiB);
    ASSERT_OK(clean);
    EXPECT_EQ(blob::content_hash(**clean), blob::content_hash(*data));
  });
}

// Regression: a truncate stood the fingerprint table down but never the
// zero map, so a block rewritten after truncating read back as zeros.
TEST(Proxy, TruncatedZeroMappedFileReadsBackRewrite) {
  ProxyFixture f;
  ZeroMappedImage img(f);
  auto data = blob::make_synthetic(15, 32_KiB, 0, 2.0);
  f.run([&](sim::Process& p) {
    ASSERT_OK(f.client.read(p, "/vm.vmss", img.zero_off, 32_KiB));  // loads the meta-data
    ASSERT_OK(f.client.truncate(p, "/vm.vmss", 0));
    ASSERT_OK(f.client.write(p, "/vm.vmss", img.zero_off, data));
    ASSERT_OK(f.client.flush(p));
    ASSERT_OK(f.client_proxy.signal_write_back(p));
    f.client.drop_caches();
    auto back = f.client.read(p, "/vm.vmss", img.zero_off, 32_KiB);
    ASSERT_OK(back);
    EXPECT_EQ(blob::content_hash(**back), blob::content_hash(*data));
  });
}

TEST(Proxy, FileChannelServesWholeFileNeed) {
  ProxyFixture f;
  auto mem = blob::make_synthetic(9, 4_MiB, 0.9, 3.0);
  ASSERT_TRUE(f.server_fs.put_file("/exports/vm.vmss", mem).is_ok());
  auto meta = meta::MetaFile::generate(*mem, 8_KiB, meta::file_channel_actions());
  ASSERT_TRUE(
      f.server_fs.put_file("/exports/.vm.vmss.gvfsmeta", meta.serialize()).is_ok());
  f.run([&](sim::Process& p) {
    auto back = f.client.read_all(p, "/vm.vmss");
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(blob::content_hash(**back), blob::content_hash(*mem));
  });
  EXPECT_EQ(f.channel.fetches(), 1u);
  EXPECT_GT(f.client_proxy.reads_served_from_file_cache(), 0u);
  // Wire carried only the compressed image, not 4 MiB of blocks.
  EXPECT_LT(f.channel.wire_bytes(), 1_MiB);
}

// File-channel endpoint that parks the fetching fiber long enough for another
// fiber to interleave, then fails — forcing handle_read_ down the block-path
// fallback with whatever MetaFile pointer it still holds.
struct StallingEndpoint final : meta::RemoteFileEndpoint {
  bool in_fetch = false;
  Result<meta::CompressedImage> fetch_compressed(sim::Process& p,
                                                 vfs::FileId) override {
    in_fetch = true;
    p.delay(2 * kSecond);
    in_fetch = false;
    return err(ErrCode::kIo, "channel endpoint down");
  }
  Status store_compressed(sim::Process&, vfs::FileId, blob::BlobRef,
                          u64) override {
    return err(ErrCode::kIo, "channel endpoint down");
  }
};

// Regression for the cross-yield defect the yield-point analyzer surfaced in
// handle_read_: the MetaFile* acquired before fetch_into_cache() used to be
// dereferenced after it, but the fetch yields on the WAN — and a concurrent
// drop_soft_state() (degraded-mode reset) frees the MetaFile the pointer
// aimed at. The fix re-acquires the pointer after the yield; this
// test drives exactly that interleaving and asserts the read completes off a
// freshly re-probed meta file.
TEST(Proxy, DropSoftStateDuringFileChannelFetchReprobesMeta) {
  ProxyFixture f;
  auto mem = blob::make_synthetic(31, 256_KiB, 0.9, 3.0);
  ASSERT_TRUE(f.server_fs.put_file("/exports/vm.vmss", mem).is_ok());
  // Zero map AND file-channel actions: the failed fetch must fall back to
  // zero filtering, which dereferences the (re-acquired) meta pointer.
  auto meta = meta::MetaFile::generate(*mem, 32_KiB, meta::file_channel_actions());
  ASSERT_TRUE(
      f.server_fs.put_file("/exports/.vm.vmss.gvfsmeta", meta.serialize()).is_ok());
  StallingEndpoint stalled;
  meta::FileChannelClient channel(stalled, f.scp, f.file_cache);
  f.client_proxy.attach_file_channel(channel, f.file_cache);

  bool dropped = false;
  u64 lookups_before_drop = 0;
  f.kernel.spawn("reader", [&](sim::Process& p) {
    ASSERT_OK(f.client.mount(p, "/exports"));
    auto back = f.client.read_all(p, "/vm.vmss");
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(blob::content_hash(**back), blob::content_hash(*mem));
  });
  f.kernel.spawn("dropper", [&](sim::Process& p) {
    p.delay(1 * kSecond);
    // The reader must be parked inside the endpoint right now, holding its
    // pre-yield MetaFile pointer — otherwise this test proves nothing.
    ASSERT_TRUE(stalled.in_fetch);
    lookups_before_drop = f.server.calls(nfs::Proc::kLookup);
    f.client_proxy.drop_soft_state();
    dropped = true;
  });
  f.kernel.run();
  EXPECT_EQ(f.kernel.failed_processes(), 0) << f.kernel.failed_names_joined();
  EXPECT_TRUE(dropped);
  // The re-acquire after the yield found the table dropped and re-probed the
  // server for the meta file instead of chasing the freed pointer.
  EXPECT_GT(f.server.calls(nfs::Proc::kLookup), lookups_before_drop);
  EXPECT_EQ(f.client_proxy.meta_files_loaded(), 1u);
  // ...and the re-acquired meta actually served: zero blocks were filtered.
  EXPECT_GT(f.client_proxy.zero_filtered_reads(), 0u);
}

// Installs `/exports/<name>` with meta-data that routes it through the file
// channel: the file's first read pulls it whole into the whole-file cache.
vfs::FileId put_file_channel_image(ProxyFixture& f, const std::string& name,
                                   const blob::BlobRef& content) {
  auto id = f.server_fs.put_file("/exports/" + name, content);
  EXPECT_TRUE(id.is_ok());
  auto meta = meta::MetaFile::generate(*content, 32_KiB, meta::file_channel_actions());
  EXPECT_OK(f.server_fs.put_file(meta::MetaFile::meta_path_for("/exports/" + name),
                                 meta.serialize()));
  return id.is_ok() ? *id : 0;
}

u64 origin_hash(ProxyFixture& f, const std::string& name, u64 offset, u64 len) {
  auto file = f.server_fs.get_file("/exports/" + name);
  EXPECT_TRUE(file.is_ok());
  return blob::content_hash(blob::SliceBlob(*file, offset, len));
}

// Regression: a truncate wrote back the block cache and the log, then
// dropped the dirty whole-file copy without uploading it, so acknowledged
// writes to a file the file channel served never reached the origin.
TEST(Proxy, TruncateUploadsDirtyWholeFileCopy) {
  ProxyFixture f;
  put_file_channel_image(f, "vm.vmss", blob::make_synthetic(41, 1_MiB, 0.5, 3.0));
  auto data = blob::make_synthetic(42, 32_KiB, 0, 2.0);
  f.run([&](sim::Process& p) {
    ASSERT_OK(f.client.read(p, "/vm.vmss", 0, 32_KiB));  // fetches the whole file
    ASSERT_OK(f.client.write(p, "/vm.vmss", 0, data));
    ASSERT_OK(f.client.close(p, "/vm.vmss"));
    ASSERT_OK(f.client.truncate(p, "/vm.vmss", 512_KiB));
    ASSERT_OK(f.client_proxy.signal_write_back(p));
  });
  auto file = f.server_fs.get_file("/exports/vm.vmss");
  ASSERT_TRUE(file.is_ok());
  EXPECT_EQ((*file)->size(), 512_KiB);
  EXPECT_EQ(origin_hash(f, "vm.vmss", 0, 32_KiB), blob::content_hash(*data));
}

// Regression: a lease recall of one file uploaded every dirty whole-file
// copy the proxy held.
TEST(Proxy, RecallUploadsOnlyTheRecalledFile) {
  ProxyFixture f;
  const vfs::FileId a =
      put_file_channel_image(f, "a.vmss", blob::make_synthetic(43, 1_MiB, 0.5, 3.0));
  auto b_content = blob::make_synthetic(44, 1_MiB, 0.5, 3.0);
  put_file_channel_image(f, "b.vmss", b_content);
  auto data = blob::make_synthetic(45, 32_KiB, 0, 2.0);
  f.run([&](sim::Process& p) {
    for (const char* path : {"/a.vmss", "/b.vmss"}) {
      ASSERT_OK(f.client.read(p, path, 0, 32_KiB));
      ASSERT_OK(f.client.write(p, path, 0, data));
      ASSERT_OK(f.client.close(p, path));
    }
    rpc::RpcCall recall;
    recall.xid = 1;
    recall.prog = nfs::kLeaseCallbackProgram;
    recall.vers = nfs::kLeaseCallbackVersion;
    recall.proc = static_cast<u32>(nfs::CallbackProc::kRecall);
    auto args = std::make_shared<nfs::RecallArgs>();
    args->fh = f.server.fh_of(a);
    recall.args = args;
    rpc::RpcReply reply = f.client_proxy.handle(p, recall);
    ASSERT_OK(reply.status);
    EXPECT_TRUE(rpc::message_cast<nfs::RecallRes>(reply.result)->flushed);
  });
  EXPECT_EQ(f.channel.uploads(), 1u);
  EXPECT_EQ(origin_hash(f, "a.vmss", 0, 32_KiB), blob::content_hash(*data));
  EXPECT_EQ(origin_hash(f, "b.vmss", 0, 1_MiB), blob::content_hash(*b_content));
}

// Regression: a file-channel fetch ignored bytes staged in the block cache,
// so a write made before the file's first read read back as the origin's
// older bytes.
TEST(Proxy, FileChannelFetchSeesStagedBlocks) {
  ProxyFixture f;
  put_file_channel_image(f, "vm.vmss", blob::make_synthetic(46, 1_MiB, 0.5, 3.0));
  auto data = blob::make_synthetic(47, 32_KiB, 0, 2.0);
  f.run([&](sim::Process& p) {
    ASSERT_OK(f.client.write(p, "/vm.vmss", 0, data));
    ASSERT_OK(f.client.close(p, "/vm.vmss"));
    f.client.drop_caches();
    auto back = f.client.read(p, "/vm.vmss", 0, 32_KiB);
    ASSERT_OK(back);
    EXPECT_EQ(blob::content_hash(**back), blob::content_hash(*data));
  });
  EXPECT_EQ(f.channel.fetches(), 1u);
  EXPECT_EQ(f.block_cache.dirty_blocks(), 0u);
}

TEST(Proxy, MetaProbeNegativeCached) {
  ProxyFixture f;
  ASSERT_TRUE(f.server_fs.put_file("/exports/plain", blob::make_zero(64_KiB)).is_ok());
  f.run([&](sim::Process& p) {
    ASSERT_OK(f.client.read(p, "/plain", 0, 1_KiB));
    u64 lookups_after_first = f.server.calls(nfs::Proc::kLookup);
    ASSERT_OK(f.client.read(p, "/plain", 40_KiB, 1_KiB));
    // No repeated meta-probe LOOKUPs upstream.
    EXPECT_EQ(f.server.calls(nfs::Proc::kLookup), lookups_after_first);
  });
  EXPECT_EQ(f.client_proxy.meta_files_loaded(), 0u);
}

TEST(Proxy, TruncateInvalidatesCachedBlocks) {
  ProxyFixture f;
  auto content = blob::make_synthetic(10, 128_KiB, 0, 2.0);
  ASSERT_TRUE(f.server_fs.put_file("/exports/f", content).is_ok());
  f.run([&](sim::Process& p) {
    ASSERT_OK(f.client.read_all(p, "/f"));  // warm the proxy cache
    EXPECT_GT(f.block_cache.resident_blocks(), 0u);
    ASSERT_TRUE(f.client.truncate(p, "/f", 0).is_ok());
    f.client.drop_caches();
    auto a = f.client.stat(p, "/f");
    EXPECT_EQ(a->size, 0u);
    auto back = f.client.read(p, "/f", 0, 128_KiB);
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ((*back)->size(), 0u);
  });
}

// Regression: a shrinking SETATTR used to drop every dirty frame of the
// file, acknowledged bytes below the new EOF included, so the server kept
// zeros there. The proxy now pushes staged bytes below the new size before
// the truncate goes upstream.
TEST(Proxy, TruncateKeepsStagedBytesBelowNewSize) {
  ProxyFixture f;
  ASSERT_TRUE(f.server_fs.put_file("/exports/f", blob::make_zero(64_KiB)).is_ok());
  auto content = blob::make_synthetic(13, 64_KiB, 0, 2.0);
  f.run([&](sim::Process& p) {
    ASSERT_OK(f.client.write(p, "/f", 0, content));
    ASSERT_OK(f.client.flush(p));
    EXPECT_EQ(f.block_cache.dirty_blocks(), 2u);
    ASSERT_OK(f.client.truncate(p, "/f", 48_KiB));
    ASSERT_OK(f.client_proxy.signal_write_back(p));
  });
  auto file = f.server_fs.get_file("/exports/f");
  ASSERT_TRUE(file.is_ok());
  ASSERT_EQ((*file)->size(), 48_KiB);
  EXPECT_EQ(blob::content_hash(**file),
            blob::content_hash(blob::SliceBlob(content, 0, 48_KiB)));
}

TEST(Proxy, WriteThroughForwardsSynchronously) {
  ProxyFixture f;
  // Rebuild client-side with write-through policy.
  cache::BlockCacheConfig cfg = ProxyFixture::small_cache_cfg();
  cfg.policy = cache::WritePolicy::kWriteThrough;
  cache::ProxyDiskCache wt_cache(f.client_disk, cfg);
  GvfsProxy wt_proxy(ProxyFixture::make_client_proxy_cfg(), f.tunnel);
  wt_proxy.attach_block_cache(wt_cache);
  rpc::LinkChannel loop(wt_proxy, nullptr, nullptr, 15 * kMicrosecond);
  nfs::NfsClient client(loop, ProxyFixture::make_cred(), ProxyFixture::make_client_cfg());
  auto content = blob::make_synthetic(11, 32_KiB, 0, 2.0);
  ASSERT_TRUE(f.server_fs.put_file("/exports/f", blob::make_zero(32_KiB)).is_ok());
  f.kernel.run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(client.mount(p, "/exports").is_ok());
    ASSERT_TRUE(client.write(p, "/f", 0, content).is_ok());
    ASSERT_TRUE(client.flush(p).is_ok());
  });
  EXPECT_EQ(f.kernel.failed_processes(), 0) << f.kernel.failed_names_joined();
  // Server already has the data, no signal needed.
  EXPECT_EQ(blob::content_hash(**f.server_fs.get_file("/exports/f")),
            blob::content_hash(*content));
  EXPECT_EQ(wt_cache.dirty_blocks(), 0u);
}

TEST(Proxy, CascadedProxiesServeFromEitherLevel) {
  ProxyFixture f;
  // Second-level proxy between the client proxy and the server proxy.
  sim::DiskModel l2_disk(f.kernel, "l2d", sim::DiskConfig{});
  cache::ProxyDiskCache l2_cache(l2_disk, ProxyFixture::small_cache_cfg());
  ProxyConfig l2cfg;
  l2cfg.name = "l2";
  l2cfg.enable_meta = false;
  GvfsProxy l2(l2cfg, f.tunnel);
  l2.attach_block_cache(l2_cache);
  // Client stack pointed at the L2 proxy over a LAN-ish link.
  sim::Link lan_up(f.kernel, "lu", sim::LinkConfig{from_millis(0.15), 11.5 * 1_MiB, 64_KiB, 0});
  sim::Link lan_down(f.kernel, "ld", sim::LinkConfig{from_millis(0.15), 11.5 * 1_MiB, 64_KiB, 0});
  ssh::SshTunnel lan_tunnel(l2, &lan_up, &lan_down, ssh::CipherSpec{});
  sim::DiskModel c2_disk(f.kernel, "c2d", sim::DiskConfig{});
  cache::ProxyDiskCache c2_cache(c2_disk, ProxyFixture::small_cache_cfg());
  GvfsProxy c2_proxy(ProxyFixture::make_client_proxy_cfg(), lan_tunnel);
  c2_proxy.attach_block_cache(c2_cache);
  rpc::LinkChannel loop(c2_proxy, nullptr, nullptr, 15 * kMicrosecond);
  nfs::NfsClient client(loop, ProxyFixture::make_cred(), ProxyFixture::make_client_cfg());

  auto content = blob::make_synthetic(12, 256_KiB, 0, 2.0);
  ASSERT_TRUE(f.server_fs.put_file("/exports/f", content).is_ok());
  f.kernel.run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(client.mount(p, "/exports").is_ok());
    auto first = client.read_all(p, "/f");
    ASSERT_TRUE(first.is_ok());
    EXPECT_EQ(blob::content_hash(**first), blob::content_hash(*content));
    // Both levels now hold the blocks.
    EXPECT_GT(c2_cache.resident_blocks(), 0u);
    EXPECT_GT(l2_cache.resident_blocks(), 0u);
    // Drop L1: re-read served by L2 at LAN speed (no WAN messages).
    c2_cache.invalidate_all();
    client.drop_caches();
    u64 wan_msgs = f.tunnel.messages();
    SimTime t0 = p.now();
    auto second = client.read_all(p, "/f");
    ASSERT_TRUE(second.is_ok());
    EXPECT_EQ(blob::content_hash(**second), blob::content_hash(*content));
    EXPECT_LE(f.tunnel.messages(), wan_msgs + 2);
    EXPECT_LT(to_seconds(p.now() - t0), 1.0);
  });
  EXPECT_EQ(f.kernel.failed_processes(), 0) << f.kernel.failed_names_joined();
}

TEST(AsyncWriteback, SignalDrainsAsUnstableBurstsPlusOneCommit) {
  ProxyFixture f;
  // Separate client stack with the async flusher enabled.
  cache::ProxyDiskCache cache(f.client_disk, ProxyFixture::small_cache_cfg());
  ProxyConfig pcfg = ProxyFixture::make_client_proxy_cfg();
  pcfg.async_writeback = true;
  GvfsProxy proxy(pcfg, f.tunnel);
  proxy.attach_block_cache(cache);
  rpc::LinkChannel loop(proxy, nullptr, nullptr, 15 * kMicrosecond);
  nfs::NfsClient client(loop, ProxyFixture::make_cred(), ProxyFixture::make_client_cfg());

  auto content = blob::make_synthetic(21, 256_KiB, 0, 2.0);
  ASSERT_TRUE(f.server_fs.put_file("/exports/f", blob::make_zero(256_KiB)).is_ok());
  f.kernel.run_process("t", [&](sim::Process& p) {
    ASSERT_OK(client.mount(p, "/exports"));
    ASSERT_OK(client.write(p, "/f", 0, content));
    ASSERT_OK(client.flush(p));
    u64 commits_before = f.server.calls(nfs::Proc::kCommit);
    ASSERT_OK(proxy.signal_write_back(p));
    EXPECT_EQ(cache.dirty_blocks(), 0u);
    // 8 dirty 32 KiB blocks went up as UNSTABLE writes + exactly one COMMIT.
    EXPECT_EQ(proxy.flush_unstable_writes(), 8u);
    EXPECT_EQ(proxy.flush_commits(), 1u);
    EXPECT_EQ(f.server.calls(nfs::Proc::kCommit), commits_before + 1);
    EXPECT_EQ(proxy.pending_flush_blocks(), 0u);
  });
  EXPECT_EQ(f.kernel.failed_processes(), 0) << f.kernel.failed_names_joined();
  EXPECT_EQ(blob::content_hash(**f.server_fs.get_file("/exports/f")),
            blob::content_hash(*content));
}

TEST(AsyncWriteback, EvictionEnqueuesInsteadOfBlockingAndFlusherDrains) {
  ProxyFixture f;
  // Tiny cache: sequential writes overflow it, forcing dirty evictions.
  cache::BlockCacheConfig ccfg = ProxyFixture::small_cache_cfg();
  ccfg.capacity_bytes = 256_KiB;  // 8 frames of 32 KiB
  ccfg.num_banks = 1;
  ccfg.associativity = 4;
  cache::ProxyDiskCache cache(f.client_disk, ccfg);
  ProxyConfig pcfg = ProxyFixture::make_client_proxy_cfg();
  pcfg.async_writeback = true;
  GvfsProxy proxy(pcfg, f.tunnel);
  proxy.attach_block_cache(cache);
  rpc::LinkChannel loop(proxy, nullptr, nullptr, 15 * kMicrosecond);
  nfs::NfsClient client(loop, ProxyFixture::make_cred(), ProxyFixture::make_client_cfg());

  auto content = blob::make_synthetic(22, 1_MiB, 0, 2.0);
  ASSERT_TRUE(f.server_fs.put_file("/exports/f", blob::make_zero(1_MiB)).is_ok());
  f.kernel.run_process("t", [&](sim::Process& p) {
    ASSERT_OK(client.mount(p, "/exports"));
    ASSERT_OK(client.write(p, "/f", 0, content));
    ASSERT_OK(client.flush(p));
    EXPECT_GT(proxy.flush_enqueued_blocks(), 0u);  // evictions queued, not sent
    ASSERT_OK(proxy.signal_write_back(p));
  });
  // The background flusher (spawned by the evictions) and the final signal
  // drain everything before quiescence.
  EXPECT_EQ(f.kernel.failed_processes(), 0) << f.kernel.failed_names_joined();
  EXPECT_EQ(proxy.pending_flush_blocks(), 0u);
  EXPECT_EQ(blob::content_hash(**f.server_fs.get_file("/exports/f")),
            blob::content_hash(*content));
}

// Regression: a file-channel fetch started while the flusher still had the
// file's evicted blocks in flight read the origin's older bytes. The stale
// copy was clean, so it served reads, and a later upload of it put those
// older bytes back over the flushed ones.
TEST(AsyncWriteback, FileChannelFetchWaitsForFlushInFlight) {
  ProxyFixture f;
  cache::BlockCacheConfig ccfg = ProxyFixture::small_cache_cfg();
  ccfg.capacity_bytes = 256_KiB;  // 8 frames of 32 KiB
  ccfg.num_banks = 1;
  ccfg.associativity = 4;
  cache::ProxyDiskCache cache(f.client_disk, ccfg);
  cache::FileCache file_cache(f.client_disk);
  meta::FileChannelClient channel(f.endpoint, f.scp, file_cache);
  ProxyConfig pcfg = ProxyFixture::make_client_proxy_cfg();
  pcfg.async_writeback = true;
  GvfsProxy proxy(pcfg, f.tunnel);
  proxy.attach_block_cache(cache);
  proxy.attach_file_channel(channel, file_cache);
  rpc::LinkChannel loop(proxy, nullptr, nullptr, 15 * kMicrosecond);
  nfs::NfsClient client(loop, ProxyFixture::make_cred(), ProxyFixture::make_client_cfg());

  put_file_channel_image(f, "vm.vmss", blob::make_synthetic(48, 1_MiB, 0.5, 3.0));
  auto content = blob::make_synthetic(49, 1_MiB, 0, 2.0);
  auto patch = blob::make_bytes(std::vector<u8>(4_KiB, 0xab));
  f.kernel.run_process("t", [&](sim::Process& p) {
    ASSERT_OK(client.mount(p, "/exports"));
    ASSERT_OK(client.write(p, "/vm.vmss", 0, content));
    ASSERT_OK(client.close(p, "/vm.vmss"));
    EXPECT_GT(proxy.flush_enqueued_blocks(), 0u);  // evictions handed to the flusher
    client.drop_caches();
    auto back = client.read(p, "/vm.vmss", 0, 1_MiB);
    ASSERT_OK(back);
    EXPECT_EQ(blob::content_hash(**back), blob::content_hash(*content));
    ASSERT_OK(client.write(p, "/vm.vmss", 0, patch));
    ASSERT_OK(client.close(p, "/vm.vmss"));
    ASSERT_OK(proxy.signal_write_back(p));
  });
  EXPECT_EQ(f.kernel.failed_processes(), 0) << f.kernel.failed_names_joined();
  EXPECT_EQ(channel.fetches(), 1u);
  EXPECT_EQ(origin_hash(f, "vm.vmss", 0, 4_KiB), blob::content_hash(*patch));
  EXPECT_EQ(origin_hash(f, "vm.vmss", 4_KiB, 1_MiB - 4_KiB),
            blob::content_hash(blob::SliceBlob(content, 4_KiB, 1_MiB - 4_KiB)));
}

TEST(SingleFlight, ConcurrentSameBlockMissesShareOneUpstreamFetch) {
  ProxyFixture f;
  // Shared cache proxy (every proxy coalesces misses); two downstream
  // clients mount through it and read the same file concurrently.
  cache::ProxyDiskCache cache(f.client_disk, ProxyFixture::small_cache_cfg());
  ProxyConfig pcfg = ProxyFixture::make_client_proxy_cfg();
  pcfg.enable_meta = false;
  GvfsProxy proxy(pcfg, f.tunnel);
  proxy.attach_block_cache(cache);
  rpc::LinkChannel loop_a(proxy, nullptr, nullptr, 15 * kMicrosecond);
  rpc::LinkChannel loop_b(proxy, nullptr, nullptr, 15 * kMicrosecond);
  nfs::NfsClient client_a(loop_a, ProxyFixture::make_cred(), ProxyFixture::make_client_cfg());
  nfs::NfsClient client_b(loop_b, ProxyFixture::make_cred(), ProxyFixture::make_client_cfg());

  auto content = blob::make_synthetic(24, 512_KiB, 0, 2.0);
  ASSERT_TRUE(f.server_fs.put_file("/exports/f", content).is_ok());
  auto reader = [&](nfs::NfsClient& client) {
    return [&](sim::Process& p) {
      ASSERT_OK(client.mount(p, "/exports"));
      auto back = client.read_all(p, "/f");
      ASSERT_TRUE(back.is_ok());
      EXPECT_EQ(blob::content_hash(**back), blob::content_hash(*content));
    };
  };
  f.kernel.spawn("reader-a", reader(client_a));
  f.kernel.spawn("reader-b", reader(client_b));
  f.kernel.run();
  EXPECT_EQ(f.kernel.failed_processes(), 0) << f.kernel.failed_names_joined();
  // 16 blocks of 32 KiB: the server must have served each block once, not
  // once per reader.
  EXPECT_EQ(f.server.calls(nfs::Proc::kRead), 16u);
  // Every upstream fetch had exactly one lead; the other reader's request
  // either joined the in-flight fetch (wait, then served the installed
  // block as a cache hit) or arrived after it landed (plain hit).
  EXPECT_EQ(proxy.single_flight_leads(), 16u);
  EXPECT_GT(proxy.single_flight_waits(), 0u);
  EXPECT_EQ(proxy.single_flight_leads() + proxy.reads_served_from_block_cache(), 32u);
}

TEST(Prefetch, ProfilesResetOnInvalidationSoSecondColdSessionPrefetches) {
  ProxyFixture f;
  cache::ProxyDiskCache cache(f.client_disk, ProxyFixture::small_cache_cfg());
  ProxyConfig pcfg = ProxyFixture::make_client_proxy_cfg();
  pcfg.prefetch_depth = 8;
  GvfsProxy proxy(pcfg, f.tunnel);
  proxy.attach_block_cache(cache);
  rpc::LinkChannel loop(proxy, nullptr, nullptr, 15 * kMicrosecond);
  nfs::NfsClient client(loop, ProxyFixture::make_cred(), ProxyFixture::make_client_cfg());

  auto content = blob::make_synthetic(25, 1_MiB, 0, 2.0);
  ASSERT_TRUE(f.server_fs.put_file("/exports/f", content).is_ok());
  f.kernel.run_process("t", [&](sim::Process& p) {
    ASSERT_OK(client.mount(p, "/exports"));
    ASSERT_OK(client.read_all(p, "/f"));
    u64 first_session = proxy.blocks_prefetched();
    EXPECT_GT(first_session, 0u);
    // Cold second session: everything invalidated. A stale read-ahead window
    // would make the refill guard suppress prefetching entirely.
    ASSERT_OK(proxy.signal_flush(p));
    client.drop_caches();
    ASSERT_OK(client.read_all(p, "/f"));
    EXPECT_GT(proxy.blocks_prefetched(), first_session);
  });
  EXPECT_EQ(f.kernel.failed_processes(), 0) << f.kernel.failed_names_joined();
}

TEST(Proxy, StatsCountersConsistent) {
  ProxyFixture f;
  ASSERT_TRUE(f.server_fs.put_file("/exports/f", blob::make_zero(64_KiB)).is_ok());
  f.run([&](sim::Process& p) {
    ASSERT_OK(f.client.read_all(p, "/f"));
    EXPECT_GT(f.client_proxy.calls_received(), 0u);
    EXPECT_GT(f.client_proxy.calls_forwarded(), 0u);
  });
}

// Regression for the unbounded attribute cache: the proxy remembered an
// attr entry for every file handle it ever answered, so a namespace walk
// grew the cache without limit (a proxy fronting a big image tree leaked
// an entry per file for the life of the mount). The cache is now a bounded
// LRU (kAttrCacheEntries); walking more files than the bound must top out
// at the bound, evict, and still answer correctly for evicted entries.
TEST(Proxy, AttrCacheIsBoundedLruUnderNamespaceWalk) {
  ProxyFixture f;
  ProxyConfig pcfg = ProxyFixture::make_client_proxy_cfg();
  pcfg.enable_meta = false;
  GvfsProxy proxy(pcfg, f.tunnel);
  rpc::LinkChannel loop(proxy, nullptr, nullptr, 15 * kMicrosecond);
  nfs::NfsClient client(loop, ProxyFixture::make_cred(), ProxyFixture::make_client_cfg());

  constexpr u32 kBound = GvfsProxy::kAttrCacheEntries;
  constexpr int kFiles = kBound + 300;
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(
        f.server_fs.put_file("/exports/img" + std::to_string(i), blob::make_zero(1_KiB))
            .is_ok());
  }
  f.kernel.run_process("t", [&](sim::Process& p) {
    ASSERT_OK(client.mount(p, "/exports"));
    for (int i = 0; i < kFiles; ++i) {
      auto a = client.stat(p, "/img" + std::to_string(i));
      ASSERT_OK(a);
      EXPECT_EQ(a->size, 1_KiB);
    }
    EXPECT_LE(proxy.attr_cache_size(), kBound);
    EXPECT_GT(proxy.attr_evictions(), 0u);
    // An evicted early entry still answers correctly (re-fetched upstream).
    client.drop_caches();
    auto again = client.stat(p, "/img0");
    ASSERT_OK(again);
    EXPECT_EQ(again->size, 1_KiB);
    EXPECT_LE(proxy.attr_cache_size(), kBound);
  });
  EXPECT_EQ(f.kernel.failed_processes(), 0) << f.kernel.failed_names_joined();
}

}  // namespace
}  // namespace gvfs::proxy
