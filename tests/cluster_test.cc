// Origin image cluster: ShardRouter routing policy, quorum writes with
// crash-failover + journal resync, and the per-origin DRC volatility seam
// (DESIGN.md §5.7), all through the full Testbed topology.
#include <gtest/gtest.h>

#include <algorithm>

#include "blob/blob.h"
#include "common/rng.h"
#include "gvfs/migration.h"
#include "gvfs/testbed.h"
#include "meta/meta_file.h"
#include "proxy/shard_router.h"
#include "rpc/rpc.h"
#include "sim/kernel.h"

namespace gvfs::core {
namespace {

std::vector<u8> fill_bytes(u64 seed, u64 size) {
  std::vector<u8> out(size);
  SplitMix64 rng(seed);
  for (auto& b : out) b = static_cast<u8>(rng.next());
  return out;
}

std::vector<u8> file_bytes(vfs::MemFs& fs, const std::string& abs) {
  auto f = fs.get_file(abs);
  EXPECT_TRUE(f.is_ok()) << abs;
  if (!f.is_ok()) return {};
  std::vector<u8> out((*f)->size());
  (*f)->read(0, out);
  return out;
}

u32 shard_of_path(Testbed& bed, const std::string& abs) {
  auto id = bed.origin_fs(0).resolve(abs);
  EXPECT_TRUE(id.is_ok()) << abs;
  return bed.shard_router(0)->shard_of(bed.origin_server(0)->fh_of(*id));
}

// The origins holding `abs` under the testbed's placement rule.
std::vector<u32> holders_of_path(Testbed& bed, const std::string& abs) {
  const TestbedOptions& opt = bed.options();
  proxy::ShardMap map(bed.origin_count(), opt.origin_replicas);
  auto id = bed.origin_fs(0).resolve(abs);
  EXPECT_TRUE(id.is_ok()) << abs;
  if (!id.is_ok()) return {};
  return map.replicas_of(map.shard_of(bed.origin_server(0)->fh_of(*id)));
}

bool has_metric(Testbed& bed, const std::string& prefix) {
  for (const auto& [id, value] : bed.metrics().snapshot()) {
    if (id.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

// ---- topology ---------------------------------------------------------------

TEST(ClusterTopology, DefaultOffKeepsSingleOrigin) {
  TestbedOptions opt;
  opt.scenario = Scenario::kWanCached;
  Testbed bed(opt);
  EXPECT_EQ(bed.origin_count(), 1u);
  EXPECT_EQ(bed.shard_router(), nullptr);
  EXPECT_NE(bed.server(), nullptr);
  EXPECT_EQ(bed.server(), bed.origin_server(0));
  EXPECT_EQ(&bed.image_fs(), &bed.origin_fs(0));
}

// A one-shard cluster is the single origin: no router, no failover state,
// the same origin accessors, and the same simulated run.
TEST(ClusterTopology, OneShardClusterIsTheSingleOrigin) {
  struct Run {
    SimTime end = 0;
    std::vector<u8> origin_bytes;
  };
  const std::vector<u8> installed = fill_bytes(7, 96_KiB);
  const std::vector<u8> patch = fill_bytes(8, 40_KiB);
  auto run = [&](bool one_shard_cluster) {
    TestbedOptions opt;
    opt.scenario = Scenario::kWanCached;
    opt.generate_image_meta = false;
    if (one_shard_cluster) {
      opt.origin_cluster = true;
      opt.origin_shards = 1;
    }
    Testbed bed(opt);
    EXPECT_EQ(bed.shard_router(), nullptr);
    EXPECT_EQ(bed.origin_count(), 1u);
    EXPECT_EQ(bed.server(), bed.origin_server(0));
    EXPECT_EQ(&bed.image_fs(), &bed.origin_fs(0));
    EXPECT_TRUE(bed.put_image_file("/f", blob::make_bytes(installed)).is_ok());

    Run out;
    bed.kernel().run_process("t", [&](sim::Process& p) {
      ASSERT_TRUE(bed.mount(p).is_ok());
      ASSERT_TRUE(bed.image_session().write(p, "/f", 8_KiB, blob::make_bytes(patch)).is_ok());
      ASSERT_TRUE(bed.image_session().read_all(p, "/f").is_ok());
      ASSERT_TRUE(bed.signal_write_back(p).is_ok());
      out.end = p.now();
    });
    EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();
    out.origin_bytes = file_bytes(bed.origin_fs(0), bed.image_dir() + "/f");
    return out;
  };

  Run single = run(false);
  Run cluster = run(true);
  EXPECT_GT(single.end, 0);
  EXPECT_EQ(cluster.end, single.end);
  std::vector<u8> want = installed;
  std::copy(patch.begin(), patch.end(), want.begin() + 8_KiB);
  EXPECT_EQ(single.origin_bytes, want);
  EXPECT_EQ(cluster.origin_bytes, want);
}

TEST(ClusterTopology, ExposesOriginsAndClampsReplicas) {
  TestbedOptions opt;
  opt.scenario = Scenario::kWanCached;
  opt.origin_cluster = true;
  opt.origin_shards = 3;
  opt.origin_replicas = 5;  // more than the cluster has: clamped to 3
  Testbed bed(opt);
  ASSERT_NE(bed.shard_router(), nullptr);
  EXPECT_EQ(bed.origin_count(), 3u);
  EXPECT_EQ(bed.shard_router()->origin_count(), 3u);
  for (int j = 0; j < 3; ++j) {
    EXPECT_NE(bed.origin_server(j), nullptr);
    EXPECT_TRUE(bed.shard_router()->origin_live(static_cast<u32>(j)));
  }
  // Chained declustering: shard s lives on {s, s+1, ...} mod N.
  EXPECT_EQ(bed.shard_router()->replicas_of(1), (std::vector<u32>{1, 2, 0}));
  // server() falls back to origin 0 in cluster mode.
  EXPECT_EQ(bed.server(), bed.origin_server(0));
}

// The LAN L2 reaches the cluster as a node would, through per-origin stacks
// and a ShardRouter: it caches every origin's blocks for the nodes, and its
// write-through passes a node's write-back to every replica.
TEST(ClusterTopology, SharedL2FrontsTheCluster) {
  TestbedOptions opt;
  opt.scenario = Scenario::kWanCached;
  opt.generate_image_meta = false;
  opt.compute_nodes = 2;
  opt.shared_l2_cache = true;
  opt.origin_cluster = true;
  opt.origin_shards = 3;
  opt.origin_replicas = 2;
  Testbed bed(opt);
  ASSERT_NE(bed.lan_proxy(), nullptr);
  EXPECT_TRUE(has_metric(bed, "lan_l2.router."));
  // The nodes talk to the L2 alone: no router of their own.
  EXPECT_EQ(bed.shard_router(0), nullptr);

  const int kFiles = 6;
  std::vector<blob::BlobRef> files;
  for (int f = 0; f < kFiles; ++f) {
    files.push_back(blob::make_synthetic(300 + static_cast<u64>(f), 2_MiB, 0.0, 1.0));
    ASSERT_TRUE(bed.put_image_file("/l2f" + std::to_string(f), files.back()).is_ok());
  }
  const std::vector<u8> patch = fill_bytes(31, 64_KiB);
  bed.kernel().run_process("t", [&](sim::Process& p) {
    for (int node = 0; node < 2; ++node) {
      ASSERT_TRUE(bed.mount(p, node).is_ok());
      for (int f = 0; f < kFiles; ++f) {
        auto data = bed.image_session(node).read_all(p, "/l2f" + std::to_string(f));
        ASSERT_TRUE(data.is_ok()) << data.status().to_string();
        EXPECT_EQ(blob::content_hash(**data), blob::content_hash(*files[f])) << f;
      }
    }
    ASSERT_TRUE(bed.image_session(0).write(p, "/l2f0", 0, blob::make_bytes(patch)).is_ok());
    ASSERT_TRUE(bed.signal_write_back(p, 0).is_ok());
  });
  ASSERT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();

  // Node 1's reads hit the L2: the origins served each 32 KiB block once.
  u64 reads = 0;
  for (u32 j = 0; j < bed.origin_count(); ++j) {
    reads += bed.origin_server(static_cast<int>(j))->calls(nfs::Proc::kRead);
  }
  EXPECT_EQ(reads, kFiles * 2_MiB / 32_KiB);

  const std::string abs = bed.image_dir() + "/l2f0";
  const std::vector<u32> holders = holders_of_path(bed, abs);
  ASSERT_EQ(holders.size(), 2u);
  for (u32 j : holders) {
    std::vector<u8> got = file_bytes(bed.origin_fs(static_cast<int>(j)), abs);
    ASSERT_GE(got.size(), patch.size()) << "origin " << j;
    EXPECT_TRUE(std::equal(patch.begin(), patch.end(), got.begin())) << "origin " << j;
  }
}

// Migration in a cluster: the file-channel upload of the new memory state
// lands on every replica of the .vmss's shard, and every replica of the meta
// file's shard describes that state. Before, the upload reached origin 0
// only, and each origin regenerated its meta-data from its own .vmss.
TEST(ClusterTopology, MigrationReachesEveryReplica) {
  TestbedOptions opt;
  opt.scenario = Scenario::kWanCached;
  opt.compute_nodes = 2;
  opt.origin_cluster = true;
  opt.origin_shards = 3;
  opt.origin_replicas = 2;
  Testbed bed(opt);
  vm::VmImageSpec spec;
  spec.name = "migrant";
  spec.memory_bytes = 4_MiB;
  spec.disk_bytes = 32_MiB;
  auto image = bed.install_image(spec);
  ASSERT_TRUE(image.is_ok());
  auto new_state = blob::make_synthetic(0x5eed5, spec.memory_bytes, 0.7, 3.0);

  bed.kernel().run_process("migrate", [&](sim::Process& p) {
    ASSERT_TRUE(bed.mount(p, 0).is_ok());
    vfs::FsSession& src = bed.image_session(0);
    vm::VmMonitor src_vm;
    src_vm.attach(src, image->cfg(), image->vmss(), src, image->flat_vmdk());
    ASSERT_TRUE(src_vm.resume(p).is_ok());
    auto result = migrate_vm(p, bed, *image, src_vm, new_state, 0, 1);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  });
  ASSERT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();

  const std::string vmss = bed.image_dir() + image->vmss();
  for (u32 j : holders_of_path(bed, vmss)) {
    auto state = bed.origin_fs(static_cast<int>(j)).get_file(vmss);
    ASSERT_TRUE(state.is_ok()) << "origin " << j;
    EXPECT_EQ(blob::content_hash(**state), blob::content_hash(*new_state)) << "origin " << j;
  }
  const std::string meta_path = meta::MetaFile::meta_path_for(vmss);
  for (u32 j : holders_of_path(bed, meta_path)) {
    auto raw = bed.origin_fs(static_cast<int>(j)).get_file(meta_path);
    ASSERT_TRUE(raw.is_ok()) << "origin " << j;
    auto parsed = meta::MetaFile::parse(**raw);
    ASSERT_TRUE(parsed.is_ok()) << "origin " << j;
    for (u64 off = 0; off < spec.memory_bytes; off += 8_KiB) {
      ASSERT_EQ(parsed->range_is_zero(off, 8_KiB), new_state->is_zero_range(off, 8_KiB))
          << "origin " << j << " offset " << off;
    }
  }
}

// ---- routing ----------------------------------------------------------------

TEST(ClusterRouting, WritesLandOnlyOnHomeShardReplicas) {
  TestbedOptions opt;
  opt.scenario = Scenario::kWanCached;
  opt.generate_image_meta = false;
  opt.write_policy = cache::WritePolicy::kWriteThrough;
  opt.origin_cluster = true;
  opt.origin_shards = 2;
  opt.origin_replicas = 1;
  Testbed bed(opt);

  const int kFiles = 4;
  std::vector<std::vector<u8>> init(kFiles);
  for (int f = 0; f < kFiles; ++f) {
    init[static_cast<std::size_t>(f)] = fill_bytes(10 + static_cast<u64>(f), 8_KiB);
    ASSERT_TRUE(bed.put_image_file("/r" + std::to_string(f),
                                   blob::make_bytes(init[static_cast<std::size_t>(f)]))
                    .is_ok());
  }

  std::vector<std::vector<u8>> fresh(kFiles);
  bed.kernel().run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(bed.mount(p).is_ok());
    for (int f = 0; f < kFiles; ++f) {
      fresh[static_cast<std::size_t>(f)] = fill_bytes(99 + static_cast<u64>(f), 8_KiB);
      ASSERT_TRUE(bed.image_session()
                      .write(p, "/r" + std::to_string(f), 0,
                             blob::make_bytes(fresh[static_cast<std::size_t>(f)]))
                      .is_ok());
    }
    ASSERT_TRUE(bed.image_session().flush(p).is_ok());
    ASSERT_TRUE(bed.signal_write_back(p).is_ok());
  });
  ASSERT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();

  // With R = 1 a write reaches exactly its home origin: the home copy holds
  // the new bytes, every other origin still holds the install-time bytes.
  for (int f = 0; f < kFiles; ++f) {
    std::string abs = bed.image_dir() + "/r" + std::to_string(f);
    u32 home = shard_of_path(bed, abs);
    for (u32 j = 0; j < bed.origin_count(); ++j) {
      const auto& want =
          j == home ? fresh[static_cast<std::size_t>(f)] : init[static_cast<std::size_t>(f)];
      EXPECT_EQ(file_bytes(bed.origin_fs(static_cast<int>(j)), abs), want)
          << "file " << f << " origin " << j;
    }
  }
  EXPECT_GT(bed.shard_router()->writes_routed(0), 0u);
  EXPECT_GT(bed.shard_router()->writes_routed(1), 0u);
}

// An origin channel that rejects every WRITE with an authentication error
// and answers anything else (NULL probes) with an empty reply.
class RejectingOrigin final : public rpc::RpcChannel {
 public:
  rpc::RpcReply call(sim::Process&, const rpc::RpcCall& call) override {
    if (call.prog == rpc::kNfsProgram &&
        static_cast<nfs::Proc>(call.proc) == nfs::Proc::kWrite) {
      return rpc::make_error_reply(call, err(ErrCode::kAuthError, "rejected"));
    }
    return rpc::make_reply(call, nullptr);
  }
};

// A WRITE every replica rejects answers with the origins' error whether it
// travels alone or in a burst. A burst used to come back as a timeout, which
// the proxy takes for an outage (parking or requeueing the flush).
TEST(ClusterRouting, RejectedWriteBurstKeepsTheOriginsError) {
  sim::SimKernel kernel;
  RejectingOrigin o0;
  RejectingOrigin o1;
  proxy::ShardRouterConfig cfg;
  cfg.replicas = 2;
  proxy::ShardRouter router({&o0, &o1}, cfg);
  nfs::Fh fh;
  fh.fsid = 7;
  fh.fileid = 3;
  auto write_call = [&](u32 xid, u64 offset) {
    auto wa = std::make_shared<nfs::WriteArgs>();
    wa->fh = fh;
    wa->offset = offset;
    wa->count = 4_KiB;
    wa->stable = nfs::StableHow::kUnstable;
    wa->data = blob::zero_ref(4_KiB);
    rpc::RpcCall c;
    c.xid = xid;
    c.prog = rpc::kNfsProgram;
    c.vers = rpc::kNfsVersion3;
    c.proc = static_cast<u32>(nfs::Proc::kWrite);
    c.args = wa;
    return c;
  };
  kernel.run_process("t", [&](sim::Process& p) {
    rpc::RpcReply one = router.call(p, write_call(1, 0));
    EXPECT_EQ(one.status.code(), ErrCode::kAuthError) << one.status.to_string();
    std::vector<rpc::RpcReply> burst =
        router.call_pipelined(p, {write_call(2, 0), write_call(3, 4_KiB)});
    ASSERT_EQ(burst.size(), 2u);
    for (const rpc::RpcReply& r : burst) {
      EXPECT_EQ(r.status.code(), ErrCode::kAuthError) << r.status.to_string();
    }
  });
  EXPECT_EQ(kernel.failed_processes(), 0) << kernel.failed_names_joined();
  EXPECT_EQ(router.journaled_ops(), 0u);
  EXPECT_TRUE(router.origin_live(0));
  EXPECT_TRUE(router.origin_live(1));
}

TEST(ClusterRouting, NamespaceMutationsBroadcastToAllOrigins) {
  TestbedOptions opt;
  opt.scenario = Scenario::kWanCached;
  opt.generate_image_meta = false;
  opt.write_policy = cache::WritePolicy::kWriteThrough;
  opt.origin_cluster = true;
  opt.origin_shards = 3;
  opt.origin_replicas = 1;
  Testbed bed(opt);

  bed.kernel().run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(bed.mount(p).is_ok());
    ASSERT_TRUE(bed.image_session().create(p, "/fresh").is_ok());
    ASSERT_TRUE(bed.image_session().create(p, "/doomed").is_ok());
    ASSERT_TRUE(bed.image_session().remove(p, "/doomed").is_ok());
  });
  ASSERT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();

  // CREATE broadcast: the file exists on every origin under the SAME FileId
  // (identical mutation order keeps the shard map aligned cluster-wide).
  auto id0 = bed.origin_fs(0).resolve(bed.image_dir() + "/fresh");
  ASSERT_TRUE(id0.is_ok());
  for (u32 j = 0; j < bed.origin_count(); ++j) {
    auto idj = bed.origin_fs(static_cast<int>(j)).resolve(bed.image_dir() + "/fresh");
    ASSERT_TRUE(idj.is_ok()) << "origin " << j;
    EXPECT_EQ(*idj, *id0) << "origin " << j;
    // REMOVE broadcast: the deleted name is gone everywhere.
    EXPECT_FALSE(
        bed.origin_fs(static_cast<int>(j)).exists(bed.image_dir() + "/doomed"))
        << "origin " << j;
  }
}

TEST(ClusterRouting, StatSizeReflectsHomeShardAfterExtend) {
  TestbedOptions opt;
  opt.scenario = Scenario::kWanCached;
  opt.generate_image_meta = false;
  opt.write_policy = cache::WritePolicy::kWriteThrough;
  opt.origin_cluster = true;
  opt.origin_shards = 4;
  opt.origin_replicas = 1;
  Testbed bed(opt);

  const int kFiles = 8;
  for (int f = 0; f < kFiles; ++f) {
    ASSERT_TRUE(bed.put_image_file("/s" + std::to_string(f),
                                   blob::make_bytes(fill_bytes(7, 8_KiB)))
                    .is_ok());
  }

  bed.kernel().run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(bed.mount(p).is_ok());
    auto& session = bed.image_session();
    std::vector<u8> ext = fill_bytes(55, 16_KiB);
    for (int f = 0; f < kFiles; ++f) {
      ASSERT_TRUE(
          session.write(p, "/s" + std::to_string(f), 0, blob::make_bytes(ext))
              .is_ok());
    }
    ASSERT_TRUE(session.flush(p).is_ok());
    // Only the home shard saw the extending write; a LOOKUP served by any
    // other origin must still report the authoritative (patched) size.
    bed.nfs_client()->drop_caches();
    for (int f = 0; f < kFiles; ++f) {
      auto a = session.stat(p, "/s" + std::to_string(f));
      ASSERT_TRUE(a.is_ok());
      EXPECT_EQ(a->size, 16_KiB) << "file " << f;
    }
  });
  ASSERT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();
  // 8 files over 4 shards: some LOOKUPs are necessarily served off-shard
  // (the directory's home differs from the file's), so the patch path ran.
  EXPECT_GT(bed.shard_router()->lookup_patches(), 0u);
}

// ---- crash failover + DRC seam ----------------------------------------------

struct CrashRunStats {
  u64 failovers = 0;
  u64 resyncs = 0;
  u64 journaled = 0;
  u64 replayed = 0;
  u64 drc_clears0 = 0;
  u64 drc_clears1 = 0;
  u64 drc_retained1 = 0;
  double outage_ms = 0;
  bool victim_live = false;
  u64 victim_journal = 0;
  bool converged = false;
};

// One origin of a 2-shard / 2-replica cluster crashes at [5 s, 15 s) while a
// write-through client keeps writing. Every shard lives on both origins, so
// the survivor acks alone, the victim's journal accrues, and reintegration
// replays it; afterwards both origins must hold identical (expected) bytes.
CrashRunStats run_crash_cluster(bool drc_survives) {
  TestbedOptions opt;
  opt.scenario = Scenario::kWanCached;
  opt.generate_image_meta = false;
  opt.write_policy = cache::WritePolicy::kWriteThrough;
  opt.origin_cluster = true;
  opt.origin_shards = 2;
  opt.origin_replicas = 2;
  opt.drc_survives = drc_survives;
  opt.enable_fault_injection = true;
  opt.fault.crashes.push_back(sim::FaultWindow{5 * kSecond, 15 * kSecond, 1});
  opt.retry.timeout = 250 * kMillisecond;
  opt.retry.max_retransmits = 2;  // soft mount: kTimeout reaches the router
  Testbed bed(opt);

  const int kFiles = 2;
  std::vector<std::vector<u8>> expect(kFiles);
  for (int f = 0; f < kFiles; ++f) {
    expect[static_cast<std::size_t>(f)] = fill_bytes(40 + static_cast<u64>(f), 64_KiB);
    EXPECT_TRUE(bed.put_image_file(
                       "/c" + std::to_string(f),
                       blob::make_bytes(expect[static_cast<std::size_t>(f)]))
                    .is_ok());
  }

  bed.kernel().run_process("writer", [&](sim::Process& p) {
    ASSERT_TRUE(bed.mount(p).is_ok());
    auto& session = bed.image_session();
    auto write_round = [&](u64 seed) {
      for (int f = 0; f < kFiles; ++f) {
        std::vector<u8> data = fill_bytes(seed + static_cast<u64>(f), 32_KiB);
        ASSERT_TRUE(session
                        .write(p, "/c" + std::to_string(f), 0,
                               blob::make_bytes(data))
                        .is_ok());
        auto& bytes = expect[static_cast<std::size_t>(f)];
        std::copy(data.begin(), data.end(), bytes.begin());
      }
      // Push the staged writes upstream NOW, inside the crash window —
      // otherwise they sit in the client until the final flush and the
      // router never sees the dead replica.
      ASSERT_TRUE(session.flush(p).is_ok());
    };
    write_round(100);  // both origins live
    p.delay_until(8 * kSecond);
    write_round(200);  // origin 1 dead: survivor acks, victim journals
    p.delay_until(11 * kSecond);
    write_round(300);  // still dead: more journal
    p.delay_until(20 * kSecond);
    ASSERT_TRUE(session.flush(p).is_ok());
    bed.shard_router()->resync(p);  // force reintegration + replay
  });
  EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();

  const proxy::ShardRouter* router = bed.shard_router();
  CrashRunStats out;
  out.failovers = router->failovers();
  out.resyncs = router->resyncs();
  out.journaled = router->journaled_ops();
  out.replayed = router->replayed_ops();
  out.outage_ms = router->last_outage_ms();
  out.victim_live = router->origin_live(1);
  out.victim_journal = router->journal_size(1);
  out.drc_clears0 = bed.origin_server(0)->drc_clears();
  out.drc_clears1 = bed.origin_server(1)->drc_clears();
  out.drc_retained1 = bed.origin_server(1)->drc_retained();
  out.converged = true;
  for (int f = 0; f < kFiles; ++f) {
    std::string abs = bed.image_dir() + "/c" + std::to_string(f);
    for (u32 j = 0; j < bed.origin_count(); ++j) {
      if (file_bytes(bed.origin_fs(static_cast<int>(j)), abs) !=
          expect[static_cast<std::size_t>(f)]) {
        out.converged = false;
      }
    }
  }
  return out;
}

// Regression for rejoin read-balance: a reintegrated replica used to come
// back with an invalid latency estimate, which best_read_replica_ scores as
// 0.0 ms — so the replica with the coldest page cache instantly absorbed the
// entire read fan-out of every shard it serves. Reintegration now seeds the
// estimate at the live peers' ceiling; for a shard homed on origin 0 the
// seeded tie must keep reads on origin 0 (strict <, earlier set position),
// and the rejoined origin 1 must take none of the post-resync reads.
TEST(ClusterFailover, RejoinedReplicaDoesNotAbsorbReadFanOut) {
  TestbedOptions opt;
  opt.scenario = Scenario::kWanCached;
  opt.generate_image_meta = false;
  opt.write_policy = cache::WritePolicy::kWriteThrough;
  opt.origin_cluster = true;
  opt.origin_shards = 2;
  opt.origin_replicas = 2;
  opt.enable_fault_injection = true;
  opt.fault.crashes.push_back(sim::FaultWindow{5 * kSecond, 15 * kSecond, 1});
  opt.retry.timeout = 250 * kMillisecond;
  opt.retry.max_retransmits = 2;
  Testbed bed(opt);

  // Pick a file homed on shard 0: its replica set is {origin 0, origin 1},
  // so the seeded tie must resolve to origin 0.
  std::vector<u8> content = fill_bytes(70, 256_KiB);
  std::string home0;
  for (int i = 0; i < 8 && home0.empty(); ++i) {
    std::string rel = "/r" + std::to_string(i);
    ASSERT_TRUE(bed.put_image_file(rel, blob::make_bytes(content)).is_ok());
    if (shard_of_path(bed, bed.image_dir() + rel) == 0) home0 = rel;
  }
  ASSERT_FALSE(home0.empty());

  u64 before0 = 0, before1 = 0, after0 = 0, after1 = 0;
  const int kHerd = 8;
  bed.kernel().spawn("setup", [&](sim::Process& p) {
    ASSERT_TRUE(bed.mount(p).is_ok());
    auto& session = bed.image_session();
    p.delay_until(8 * kSecond);  // origin 1 is down
    for (int i = 0; i < 4; ++i) {  // origin 0 accrues real samples
      bed.nfs_client()->drop_caches();
      bed.block_cache()->invalidate_all();
      auto r = session.read_all(p, home0);
      ASSERT_TRUE(r.is_ok());
      EXPECT_EQ(blob::content_hash(**r),
                blob::content_hash(*blob::make_bytes(content)));
    }
    p.delay_until(20 * kSecond);    // healed
    bed.shard_router()->resync(p);  // reintegrate (seeds the estimate)
    // Re-warm dentries/attrs (LOOKUPs route by the directory's shard), then
    // empty the data path so the herd below goes all the way downstream.
    ASSERT_TRUE(session.read_all(p, home0).is_ok());
    bed.nfs_client()->page_cache().drop_all();
    bed.block_cache()->invalidate_all();
    before0 = bed.shard_router()->reads_routed(0);
    before1 = bed.shard_router()->reads_routed(1);
  });
  // The herd: concurrent cold READs of distinct blocks, all routed before
  // any completion can feed the estimator a sample. Pre-fix every one of
  // them picked the 0.0 ms rejoined replica.
  for (int i = 0; i < kHerd; ++i) {
    bed.kernel().spawn("reader" + std::to_string(i), [&, i](sim::Process& p) {
      p.delay_until(21 * kSecond);
      auto r = bed.image_session().read(p, home0,
                                        static_cast<u64>(i) * 32_KiB, 32_KiB);
      ASSERT_TRUE(r.is_ok());
    });
  }
  bed.kernel().spawn("check", [&](sim::Process& p) {
    p.delay_until(25 * kSecond);
    after0 = bed.shard_router()->reads_routed(0);
    after1 = bed.shard_router()->reads_routed(1);
  });
  bed.kernel().run();
  EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();
  EXPECT_TRUE(bed.shard_router()->origin_live(1));
  EXPECT_GT(after0, before0);
  // Pre-fix the rejoined replica absorbed the entire herd here.
  EXPECT_EQ(after1, before1);
}

TEST(ClusterFailover, CrashJournalReplayConvergesWithZeroLostWrites) {
  CrashRunStats s = run_crash_cluster(/*drc_survives=*/false);
  EXPECT_GE(s.failovers, 1u);
  EXPECT_GE(s.resyncs, 1u);
  EXPECT_GT(s.journaled, 0u);
  EXPECT_EQ(s.replayed, s.journaled);  // every journaled op replayed
  EXPECT_TRUE(s.victim_live);
  EXPECT_EQ(s.victim_journal, 0u);
  EXPECT_GT(s.outage_ms, 0.0);
  EXPECT_LT(s.outage_ms, 30000.0);
  EXPECT_TRUE(s.converged);
  // The restart callback is keyed by server id: only the crashed origin's
  // DRC was cleared (RFC 1813 §4 volatility — the cache does not survive a
  // reboot unless journaled).
  EXPECT_GE(s.drc_clears1, 1u);
  EXPECT_EQ(s.drc_clears0, 0u);
  EXPECT_EQ(s.drc_retained1, 0u);
}

TEST(ClusterFailover, DrcSurvivesSeamRetainsCacheAcrossReboot) {
  CrashRunStats s = run_crash_cluster(/*drc_survives=*/true);
  // Same crash, same convergence — but the Juszczak-style journaling seam
  // keeps the victim's DRC across the reboot instead of clearing it.
  EXPECT_TRUE(s.converged);
  EXPECT_GE(s.drc_retained1, 1u);
  EXPECT_EQ(s.drc_clears1, 0u);
  EXPECT_EQ(s.drc_clears0, 0u);
}

// ---- quorum-write ordering under concurrency --------------------------------

// Scripted origin channel for driving a ShardRouter directly. A WRITE takes
// effect at request *arrival* (the order a real server's nfsd would observe),
// then the reply is delayed by a data-size-proportional service time — the
// window in which a second writer's RPC can land. While `alive` is false every
// call answers kTimeout, which is what the router's failure detector keys on.
class ApplyOrderOrigin final : public rpc::RpcChannel {
 public:
  bool alive = true;
  std::vector<u64> applied;  // WRITE offsets in request-arrival order

  rpc::RpcReply call(sim::Process& p, const rpc::RpcCall& call) override {
    if (!alive) return rpc::make_error_reply(call, err(ErrCode::kTimeout, "origin down"));
    if (call.prog == rpc::kNfsProgram &&
        static_cast<nfs::Proc>(call.proc) == nfs::Proc::kWrite) {
      auto wa = rpc::message_cast<nfs::WriteArgs>(call.args);
      applied.push_back(wa->offset);
      p.delay(static_cast<SimDuration>(wa->count) * kMillisecond);
      auto res = std::make_shared<nfs::WriteRes>();
      res->count = wa->count;
      res->committed = nfs::StableHow::kFileSync;
      res->verifier = 42;
      return rpc::make_reply(call, res);
    }
    return rpc::make_reply(call, nullptr);  // NULL probes etc.
  }
};

// Regression for the journal-order inversion the yield-point analyzer
// surfaced (yield-held-lock in the quorum write path, ShardRouter::write_):
// the replica fan-out yields once per RPC, so two interleaved writers used to
// land in one order on the live replica but journal in the *completion* order
// for the dead one — and the replay then diverged the replicas. The per-shard write lock serializes the
// fan-outs; this test drives the exact overtaking interleaving and asserts
// the journal replay reproduces the live replica's apply order.
TEST(ClusterFailover, ConcurrentQuorumWritesReplayInApplyOrder) {
  sim::SimKernel kernel;
  ApplyOrderOrigin o0;
  ApplyOrderOrigin o1;
  proxy::ShardRouterConfig cfg;
  cfg.replicas = 2;
  proxy::ShardRouter router({&o0, &o1}, cfg);

  // Pick a file handle homed on shard 0 so the fan-out hits origin 0 first.
  nfs::Fh fh;
  fh.fsid = 7;
  fh.fileid = 1;
  while (router.shard_of(fh) != 0) ++fh.fileid;

  u32 next_xid = 1;
  auto write = [&](sim::Process& p, u64 offset, u32 count) {
    auto wa = std::make_shared<nfs::WriteArgs>();
    wa->fh = fh;
    wa->offset = offset;
    wa->count = count;
    wa->stable = nfs::StableHow::kUnstable;
    wa->data = blob::zero_ref(count);
    rpc::RpcCall c;
    c.xid = next_xid++;
    c.prog = rpc::kNfsProgram;
    c.vers = rpc::kNfsVersion3;
    c.proc = static_cast<u32>(nfs::Proc::kWrite);
    c.args = wa;
    rpc::RpcReply r = router.call(p, c);
    EXPECT_TRUE(r.status.is_ok()) << r.status.to_string();
  };

  kernel.spawn("setup", [&](sim::Process& p) {
    o1.alive = false;  // crash replica 1 before any traffic
    write(p, 100, 1);  // detects the crash and starts the journal
    EXPECT_FALSE(router.origin_live(1));
  });
  // Two writers race on the same shard. The slow one issues first and parks
  // inside origin 0's service delay; the fast one would overtake it there.
  kernel.spawn("writer-slow", [&](sim::Process& p) {
    p.delay(10 * kMillisecond);
    write(p, 1, 50);  // ~50 ms of service time at the origin
  });
  kernel.spawn("writer-fast", [&](sim::Process& p) {
    p.delay(11 * kMillisecond);
    write(p, 2, 1);
  });
  kernel.spawn("revive", [&](sim::Process& p) {
    p.delay(500 * kMillisecond);
    o1.alive = true;
    router.resync(p);
  });
  kernel.run();
  EXPECT_EQ(kernel.failed_processes(), 0) << kernel.failed_names_joined();

  EXPECT_TRUE(router.origin_live(1));
  EXPECT_EQ(router.journal_size(1), 0u);
  ASSERT_FALSE(o0.applied.empty());
  // The reintegrated replica must have applied the contended writes in the
  // same order as the live one — the final value of the range depends on it.
  EXPECT_EQ(o1.applied, o0.applied);
  EXPECT_EQ(o0.applied.back(), 2u);
}

}  // namespace
}  // namespace gvfs::core
