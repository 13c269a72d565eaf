// Delegation-style lease tests (ctest label: leases): grant/deny-retry at
// the origin, recall callbacks through the reverse proxy channel stack,
// dirty-block flush on recall, expiry fencing of degraded write replay, the
// kNotSupported stand-down latch, composition with the sharded origin
// cluster, and a seeded multi-writer property sweep (DESIGN.md §5.10).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "blob/blob.h"
#include "cache/block_cache.h"
#include "common/rng.h"
#include "gvfs/testbed.h"
#include "nfs/nfs_client.h"
#include "nfs/nfs_server.h"
#include "proxy/gvfs_proxy.h"
#include "rpc/rpc.h"
#include "sim/kernel.h"
#include "stub_channel.h"

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

TestbedOptions lease_options() {
  TestbedOptions opt;
  opt.scenario = Scenario::kWanCached;
  opt.generate_image_meta = false;
  opt.enable_leases = true;
  return opt;
}

// ---- default-off ------------------------------------------------------------

TEST(LeaseToggle, DefaultOffLeavesNoLeaseState) {
  TestbedOptions opt;
  opt.scenario = Scenario::kWanCached;
  opt.generate_image_meta = false;
  Testbed bed(opt);
  ASSERT_TRUE(bed.put_image_file("/f", blob::make_bytes(fill_bytes(1, 64_KiB))).is_ok());
  bed.kernel().run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(bed.mount(p).is_ok());
    ASSERT_TRUE(bed.image_session().read_all(p, "/f").is_ok());
    ASSERT_TRUE(bed.image_session()
                    .write(p, "/f", 0, blob::make_bytes(fill_bytes(2, 8_KiB)))
                    .is_ok());
    ASSERT_TRUE(bed.image_session().flush(p).is_ok());
  });
  EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();
  EXPECT_EQ(bed.server()->leases_granted(), 0u);
  EXPECT_EQ(bed.server()->lease_table_size(), 0u);
  EXPECT_EQ(bed.client_proxy()->held_lease_count(), 0u);
  EXPECT_EQ(bed.client_proxy()->leases_acquired(), 0u);
}

// ---- grant + recall coherence -----------------------------------------------

// Two nodes, write-through. Node 0 reads (read lease, blocks cached); node 1
// then writes the same file. The write lease conflicts with node 0's read
// lease, so the origin recalls it — dropping node 0's cached frames and
// attrs — before granting node 1. Node 0's next read must see the new bytes
// immediately, with no TTL wait and no reconnect signal. Without leases the
// proxy cache serves the pre-write frames (the staleness this PR fixes).
TEST(LeaseRecall, WriterRecallsReaderCacheForCoherence) {
  TestbedOptions opt = lease_options();
  opt.compute_nodes = 2;
  opt.write_policy = cache::WritePolicy::kWriteThrough;
  Testbed bed(opt);
  std::vector<u8> before = fill_bytes(10, 64_KiB);
  std::vector<u8> after = fill_bytes(11, 64_KiB);
  ASSERT_TRUE(bed.put_image_file("/img", blob::make_bytes(before)).is_ok());

  bed.kernel().run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(bed.mount(p, 0).is_ok());
    ASSERT_TRUE(bed.mount(p, 1).is_ok());

    auto warm = bed.image_session(0).read_all(p, "/img");
    ASSERT_TRUE(warm.is_ok());
    EXPECT_EQ(blob::content_hash(**warm), blob::content_hash(*blob::make_bytes(before)));
    EXPECT_GE(bed.client_proxy(0)->held_lease_count(), 1u);

    ASSERT_TRUE(bed.image_session(1).write(p, "/img", 0, blob::make_bytes(after)).is_ok());
    ASSERT_TRUE(bed.image_session(1).flush(p).is_ok());

    // The recall already dropped node 0's frames: only the kernel client's
    // own page cache needs dropping to observe the proxy's answer.
    bed.nfs_client(0)->drop_caches();
    auto fresh = bed.image_session(0).read_all(p, "/img");
    ASSERT_TRUE(fresh.is_ok());
    EXPECT_EQ(blob::content_hash(**fresh), blob::content_hash(*blob::make_bytes(after)));

    auto a = bed.image_session(0).stat(p, "/img");
    ASSERT_TRUE(a.is_ok());
    EXPECT_EQ(a->size, 64_KiB);
  });
  EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();

  EXPECT_GE(bed.server()->lease_recalls(), 1u);
  EXPECT_EQ(bed.server()->lease_recall_failures(), 0u);
  EXPECT_GE(bed.client_proxy(0)->recalls_served(), 1u);
  EXPECT_GE(bed.client_proxy(1)->leases_acquired(), 1u);
  EXPECT_GE(bed.client_proxy(1)->lease_acquire_retries(), 1u);  // deny-retry ran
}

// Write-back flavour: node 0 holds dirty blocks under a write lease; node 1's
// read triggers a recall that must FLUSH those blocks upstream before node 1
// is granted — so node 1 reads node 0's bytes out of the origin, not the
// stale install-time content.
TEST(LeaseRecall, RecallFlushesDirtyBlocksBeforeNewReader) {
  TestbedOptions opt = lease_options();
  opt.compute_nodes = 2;
  opt.write_policy = cache::WritePolicy::kWriteBack;
  Testbed bed(opt);
  std::vector<u8> init = fill_bytes(20, 64_KiB);
  std::vector<u8> dirty = fill_bytes(21, 64_KiB);
  ASSERT_TRUE(bed.put_image_file("/img", blob::make_bytes(init)).is_ok());

  bed.kernel().run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(bed.mount(p, 0).is_ok());
    ASSERT_TRUE(bed.mount(p, 1).is_ok());

    ASSERT_TRUE(bed.image_session(0).write(p, "/img", 0, blob::make_bytes(dirty)).is_ok());
    ASSERT_TRUE(bed.image_session(0).flush(p).is_ok());  // staged -> proxy cache
    EXPECT_GT(bed.block_cache(0)->dirty_blocks(), 0u);

    auto read = bed.image_session(1).read_all(p, "/img");
    ASSERT_TRUE(read.is_ok());
    EXPECT_EQ(blob::content_hash(**read), blob::content_hash(*blob::make_bytes(dirty)));
    // The recall drained node 0's dirty frames.
    EXPECT_EQ(bed.block_cache(0)->dirty_blocks(), 0u);
  });
  EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();

  EXPECT_GE(bed.server()->lease_recalls(), 1u);
  EXPECT_GE(bed.client_proxy(0)->recalls_served(), 1u);
  EXPECT_EQ(file_bytes(bed.image_fs(), bed.image_dir() + "/img"), dirty);
}

// ---- expiry fencing ---------------------------------------------------------

// A node whose write lease lapses during a partition must re-acquire it
// before its parked degraded writes replay: the fence is the queued-write
// revalidation this PR adds. The partition (60 s) outlasts the lease (10 s),
// so reconnect-time replay must fence, re-acquire (purging the expired
// holder at the origin), and only then push the queue.
TEST(LeaseExpiry, LapsedHolderFencesQueuedWritesOnReconnect) {
  TestbedOptions opt = lease_options();
  opt.write_policy = cache::WritePolicy::kWriteThrough;
  opt.lease_duration = 10 * kSecond;
  opt.enable_fault_injection = true;
  opt.degraded_proxy = true;
  opt.fault.partitions.push_back(sim::FaultWindow{30 * kSecond, 90 * kSecond});
  opt.retry.timeout = 250 * kMillisecond;
  opt.retry.max_retransmits = 2;  // soft mount: kTimeout reaches the proxy
  Testbed bed(opt);
  std::vector<u8> init = fill_bytes(30, 64_KiB);
  std::vector<u8> patch = fill_bytes(31, 32_KiB);
  ASSERT_TRUE(bed.put_image_file("/img", blob::make_bytes(init)).is_ok());

  bed.kernel().run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(bed.mount(p).is_ok());
    // Healthy write: acquires the write lease (expires ~10 s later).
    ASSERT_TRUE(bed.image_session()
                    .write(p, "/img", 32_KiB, blob::make_bytes(fill_bytes(32, 32_KiB)))
                    .is_ok());
    ASSERT_TRUE(bed.image_session().flush(p).is_ok());
    EXPECT_GE(bed.client_proxy()->held_lease_count(), 1u);
    ASSERT_LT(p.now(), 30 * kSecond);

    // Mid-partition, lease long lapsed: the write queues degraded.
    p.delay_until(45 * kSecond);
    ASSERT_TRUE(bed.image_session().write(p, "/img", 0, blob::make_bytes(patch)).is_ok());
    ASSERT_TRUE(bed.image_session().flush(p).is_ok());
    EXPECT_TRUE(bed.client_proxy()->upstream_down());
    EXPECT_GT(bed.client_proxy()->queued_writebacks(), 0u);

    // Heal: replay must fence (re-acquire) before pushing the queue.
    p.delay_until(100 * kSecond);
    ASSERT_TRUE(bed.client_proxy()->signal_reconnect(p).is_ok());
    EXPECT_FALSE(bed.client_proxy()->upstream_down());
  });
  EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();

  const auto* proxy = bed.client_proxy();
  EXPECT_GE(proxy->lease_fences(), 1u);
  EXPECT_GE(bed.server()->lease_expirations(), 1u);
  EXPECT_EQ(proxy->pending_writebacks(), 0u);
  EXPECT_EQ(proxy->queued_writebacks(), proxy->replayed_writebacks());
  std::vector<u8> healthy = fill_bytes(32, 32_KiB);
  std::vector<u8> want = init;
  std::copy(patch.begin(), patch.end(), want.begin());
  std::copy(healthy.begin(), healthy.end(), want.begin() + 32_KiB);
  EXPECT_EQ(file_bytes(bed.image_fs(), bed.image_dir() + "/img"), want);
}

// ---- kNotSupported stand-down -----------------------------------------------

// Counts LEASE_ACQUIRE RPCs crossing the wire so the latch is observable.
struct LeaseCountingChannel final : tests::PerCallChannel {
  explicit LeaseCountingChannel(rpc::RpcChannel& in) : inner(in) {}
  rpc::RpcChannel& inner;
  u64 acquires = 0;
  rpc::RpcReply on_call(sim::Process& p, const rpc::RpcCall& c) override {
    if (c.prog == rpc::kNfsProgram &&
        static_cast<nfs::Proc>(c.proc) == nfs::Proc::kLeaseAcquire) {
      ++acquires;
    }
    return inner.call(p, c);
  }
};

// A lease-enabled proxy against a lease-unaware origin: the first acquire
// answers kNotSupported and the proxy stands down for the session — exactly
// one probe on the wire, every later request free of lease traffic.
TEST(LeaseToggle, NotSupportedLatchesAfterOneProbe) {
  sim::SimKernel kernel;
  vfs::MemFs fs;
  sim::DiskModel sdisk{kernel, "sd", sim::DiskConfig{}};
  nfs::NfsServer server{kernel, fs, sdisk, nfs::NfsServerConfig{}};  // leases off
  ASSERT_TRUE(server.add_export("/exports").is_ok());
  rpc::LinkChannel link{server, nullptr, nullptr, 10 * kMicrosecond};
  LeaseCountingChannel counting{link};

  proxy::ProxyConfig pcfg;
  pcfg.name = "lease-proxy";
  pcfg.enable_meta = false;
  pcfg.enable_leases = true;
  pcfg.lease_client_id = 7;
  proxy::GvfsProxy proxy{pcfg, counting};
  rpc::LinkChannel loop{proxy, nullptr, nullptr, 15 * kMicrosecond};
  rpc::Credential cred;
  cred.uid = 1234;
  nfs::NfsClient client{loop, cred, nfs::NfsClientConfig{}};

  ASSERT_TRUE(fs.put_file("/exports/f", blob::make_zero(64_KiB)).is_ok());
  kernel.run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(client.mount(p, "/exports").is_ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(client.write(p, "/f", static_cast<u64>(i) * 4_KiB,
                               blob::make_synthetic(40 + static_cast<u64>(i), 4_KiB, 0, 1.0))
                      .is_ok());
      ASSERT_TRUE(client.flush(p).is_ok());
    }
  });
  EXPECT_EQ(kernel.failed_processes(), 0) << kernel.failed_names_joined();
  EXPECT_EQ(counting.acquires, 1u);  // latched after the first kNotSupported
  EXPECT_EQ(proxy.leases_acquired(), 0u);
  EXPECT_EQ(proxy.held_lease_count(), 0u);
}

// ---- cluster composition ----------------------------------------------------

// Leases compose with the sharded origin cluster: acquires route to the home
// shard's replica set (both replicas track the holder), recalls fan out from
// the origins back through the per-node callback stacks, and the recall
// coherence story holds end-to-end.
TEST(LeaseCluster, RecallCoherenceThroughShardRouter) {
  TestbedOptions opt = lease_options();
  opt.compute_nodes = 2;
  opt.write_policy = cache::WritePolicy::kWriteThrough;
  opt.origin_cluster = true;
  opt.origin_shards = 2;
  opt.origin_replicas = 2;
  Testbed bed(opt);
  std::vector<u8> before = fill_bytes(50, 64_KiB);
  std::vector<u8> after = fill_bytes(51, 64_KiB);
  ASSERT_TRUE(bed.put_image_file("/img", blob::make_bytes(before)).is_ok());

  bed.kernel().run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(bed.mount(p, 0).is_ok());
    ASSERT_TRUE(bed.mount(p, 1).is_ok());
    auto warm = bed.image_session(0).read_all(p, "/img");
    ASSERT_TRUE(warm.is_ok());

    ASSERT_TRUE(bed.image_session(1).write(p, "/img", 0, blob::make_bytes(after)).is_ok());
    ASSERT_TRUE(bed.image_session(1).flush(p).is_ok());

    bed.nfs_client(0)->drop_caches();
    auto fresh = bed.image_session(0).read_all(p, "/img");
    ASSERT_TRUE(fresh.is_ok());
    EXPECT_EQ(blob::content_hash(**fresh), blob::content_hash(*blob::make_bytes(after)));
  });
  EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();

  u64 grants = 0;
  u64 recalls = 0;
  for (u32 j = 0; j < bed.origin_count(); ++j) {
    grants += bed.origin_server(static_cast<int>(j))->leases_granted();
    recalls += bed.origin_server(static_cast<int>(j))->lease_recalls();
  }
  EXPECT_GE(grants, 2u);   // replicated acquires land on both replicas
  EXPECT_GE(recalls, 1u);
  EXPECT_GE(bed.client_proxy(0)->recalls_served(), 1u);
  // Both replicas of the home shard agree on the lease table.
  EXPECT_EQ(bed.origin_server(0)->lease_table_size(),
            bed.origin_server(1)->lease_table_size());
}

// ---- multi-writer property sweep --------------------------------------------

constexpr u64 kBlock = 32_KiB;
constexpr u64 kBlocks = 8;

// Whole-block payload tagged with (node, round) in its first bytes so the
// origin's final content identifies the winning write unambiguously.
std::vector<u8> tagged_block(int node, int round, u64 seed) {
  std::vector<u8> out = fill_bytes(seed ^ (static_cast<u64>(node) << 32) ^
                                       static_cast<u64>(round),
                                   kBlock);
  out[0] = static_cast<u8>(node);
  out[1] = static_cast<u8>(round);
  return out;
}

struct SweepResult {
  bool converged = true;      // every node view == origin bytes
  bool blocks_intact = true;  // each block byte-equals one issued payload
  u64 grants = 0;
  u64 recalls = 0;
  u64 transitions = 0;        // write-grant ownership changes at the origin
  u64 removal_events = 0;     // recalls + expirations + releases
  u64 fences = 0;
};

SweepResult run_multi_writer(u64 seed, bool with_faults) {
  TestbedOptions opt = lease_options();
  opt.compute_nodes = 3;
  opt.write_policy = cache::WritePolicy::kWriteThrough;
  opt.lease_duration = 5 * kSecond;
  opt.fault_seed = seed;
  if (with_faults) {
    opt.enable_fault_injection = true;
    opt.degraded_proxy = true;
    opt.fault.partitions.push_back(sim::FaultWindow{8 * kSecond, 20 * kSecond});
    opt.fault.crashes.push_back(sim::FaultWindow{24 * kSecond, 27 * kSecond});
    opt.retry.timeout = 250 * kMillisecond;
    opt.retry.max_retransmits = 2;
  }
  Testbed bed(opt);
  std::vector<u8> init = fill_bytes(seed, kBlocks * kBlock);
  EXPECT_TRUE(bed.put_image_file("/shared", blob::make_bytes(init)).is_ok());

  // Every payload ever issued, per block — the no-tearing oracle.
  std::vector<std::vector<std::vector<u8>>> issued(kBlocks);

  const int kRounds = 5;
  for (int node = 0; node < 3; ++node) {
    bed.kernel().spawn("writer-" + std::to_string(node), [&, node](sim::Process& p) {
      ASSERT_TRUE(bed.mount(p, node).is_ok());
      SplitMix64 rng(seed * 1000 + static_cast<u64>(node));
      for (int round = 0; round < kRounds; ++round) {
        u64 b = rng.next() % kBlocks;
        std::vector<u8> payload = tagged_block(node, round, seed);
        issued[b].push_back(payload);
        Status st = bed.image_session(node).write(
            p, "/shared", b * kBlock, blob::make_bytes(payload));
        ASSERT_TRUE(st.is_ok()) << st.to_string();
        ASSERT_TRUE(bed.image_session(node).flush(p).is_ok());
        p.delay(rng.next() % (2 * kSecond));
      }
      if (with_faults) {
        // Past every fault window: heal, fence, replay.
        p.delay_until((40 + static_cast<SimDuration>(node) * 2) * kSecond);
        ASSERT_TRUE(bed.client_proxy(node)->signal_reconnect(p).is_ok());
      }
    });
  }
  bed.kernel().run();
  EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();

  SweepResult out;
  std::vector<u8> origin = file_bytes(bed.image_fs(), bed.image_dir() + "/shared");
  EXPECT_EQ(origin.size(), kBlocks * kBlock);

  // Per-block integrity: the final content is exactly one issued payload (or
  // untouched install bytes) — never a torn mix of two writers.
  for (u64 b = 0; b < kBlocks && origin.size() == kBlocks * kBlock; ++b) {
    std::vector<u8> got(origin.begin() + static_cast<std::ptrdiff_t>(b * kBlock),
                        origin.begin() + static_cast<std::ptrdiff_t>((b + 1) * kBlock));
    bool match = std::equal(got.begin(), got.end(), init.begin() + static_cast<std::ptrdiff_t>(b * kBlock));
    for (const auto& payload : issued[b]) match = match || got == payload;
    if (!match) out.blocks_intact = false;
  }

  // Convergence: every node's post-run view equals the origin bytes.
  bed.kernel().run_process("verify", [&](sim::Process& p) {
    for (int node = 0; node < 3; ++node) {
      EXPECT_EQ(bed.client_proxy(node)->pending_writebacks(), 0u) << "node " << node;
      bed.nfs_client(node)->drop_caches();
      bed.block_cache(node)->invalidate_all();
      auto view = bed.image_session(node).read_all(p, "/shared");
      ASSERT_TRUE(view.is_ok()) << view.status().to_string();
      std::vector<u8> bytes((*view)->size());
      (*view)->read(0, bytes);
      if (bytes != origin) out.converged = false;
    }
  });
  EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();

  const nfs::NfsServer* srv = bed.server();
  out.grants = srv->leases_granted();
  out.recalls = srv->lease_recalls();
  out.removal_events =
      srv->lease_recalls() + srv->lease_expirations() + srv->lease_releases();
  for (int node = 0; node < 3; ++node) out.fences += bed.client_proxy(node)->lease_fences();

  // Grant-order invariant: the per-file write-grant sequence is time-ordered,
  // and every ownership change was preceded by a holder removal (recall,
  // expiry, or release) — the serialization the sweep's convergence rides on.
  std::map<u64, u64> last_writer;  // key -> client of latest write grant
  SimTime last_at = 0;
  for (const auto& g : srv->lease_grants()) {
    EXPECT_GE(g.at, last_at);  // append-only, virtual-time ordered
    last_at = g.at;
    if (g.mode != nfs::LeaseMode::kWrite) continue;
    auto it = last_writer.find(g.key);
    if (it != last_writer.end() && it->second != g.client) ++out.transitions;
    last_writer[g.key] = g.client;
  }
  return out;
}

TEST(MultiWriterSweep, FaultlessSeedsConvergeInLeaseGrantOrder) {
  u64 total_transitions = 0;
  for (u64 seed : {11u, 22u, 33u, 44u}) {
    SweepResult r = run_multi_writer(seed, /*with_faults=*/false);
    EXPECT_TRUE(r.converged) << "seed " << seed;
    EXPECT_TRUE(r.blocks_intact) << "seed " << seed;
    EXPECT_GT(r.grants, 0u) << "seed " << seed;
    // Every write-lease handover at the origin was driven by a removal
    // event; the grant log can never order two owners without one.
    EXPECT_LE(r.transitions, r.removal_events) << "seed " << seed;
    total_transitions += r.transitions;
  }
  // The sweep exercised real contention, not three disjoint writers.
  EXPECT_GT(total_transitions, 0u);
}

TEST(MultiWriterSweep, CrashAndPartitionSeedsStillConverge) {
  for (u64 seed : {55u, 66u}) {
    SweepResult r = run_multi_writer(seed, /*with_faults=*/true);
    EXPECT_TRUE(r.converged) << "seed " << seed;
    EXPECT_TRUE(r.blocks_intact) << "seed " << seed;
    EXPECT_GT(r.grants, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace gvfs::core
