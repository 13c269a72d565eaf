// End-to-end integration tests over full scenario testbeds: data integrity
// through the entire kernel-client -> proxy -> tunnel -> proxy -> server
// path, cache warm/cold behaviour, middleware consistency, cloning speedups
// and parallel-clone scaling — the qualitative claims of §4 at test scale.
#include <gtest/gtest.h>

#include "test_util.h"

#include <map>

#include "gvfs/experiment.h"
#include "gvfs/testbed.h"
#include "vm/vm_cloner.h"
#include "workload/synthetic.h"

namespace gvfs::core {
namespace {

vm::VmImageSpec small_image(const std::string& name = "vm1", u64 seed = 42) {
  vm::VmImageSpec spec;
  spec.name = name;
  spec.memory_bytes = 8_MiB;
  spec.disk_bytes = 128_MiB;
  spec.seed = seed;
  return spec;
}

TestbedOptions options_for(Scenario s) {
  TestbedOptions opt;
  opt.scenario = s;
  // Small block cache keeps tests fast.
  opt.block_cache.capacity_bytes = 256_MiB;
  opt.block_cache.num_banks = 16;
  return opt;
}

TEST(Testbed, ConstructsEveryScenario) {
  for (Scenario s : {Scenario::kLocal, Scenario::kLan, Scenario::kWan,
                     Scenario::kWanCached, Scenario::kPlainNfsWan}) {
    Testbed bed(options_for(s));
    EXPECT_STRNE(scenario_name(s), "?");
    bed.kernel().run_process("t", [&](sim::Process& p) {
      EXPECT_TRUE(bed.mount(p).is_ok());
    });
    EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();
  }
}

TEST(Testbed, EndToEndIntegrityWanCached) {
  Testbed bed(options_for(Scenario::kWanCached));
  auto content = blob::make_synthetic(7, 300_KiB, 0.2, 2.0);
  bed.kernel().run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(bed.mount(p).is_ok());
    auto& session = bed.image_session();
    ASSERT_TRUE(session.put(p, "/work/data.bin", content).is_ok());
    ASSERT_TRUE(session.flush(p).is_ok());
    // Read-your-writes through all layers.
    auto back = session.read_all(p, "/work/data.bin");
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(blob::content_hash(**back), blob::content_hash(*content));
    // Dirty state lives in the proxy cache until the middleware signal.
    EXPECT_GT(bed.block_cache()->dirty_blocks(), 0u);
    ASSERT_TRUE(bed.signal_write_back(p).is_ok());
    EXPECT_EQ(bed.block_cache()->dirty_blocks(), 0u);
  });
  EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();
  auto server_copy = bed.image_fs().get_file("/exports/images/work/data.bin");
  ASSERT_TRUE(server_copy.is_ok());
  EXPECT_EQ(blob::content_hash(**server_copy), blob::content_hash(*content));
}

TEST(Testbed, WarmProxyCacheBeatsColdWan) {
  Testbed bed(options_for(Scenario::kWanCached));
  ASSERT_TRUE(
      bed.image_fs().put_file("/exports/images/big", blob::make_synthetic(1, 2_MiB, 0, 2.0)).is_ok());
  double cold_s = 0, warm_s = 0;
  bed.kernel().run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(bed.mount(p).is_ok());
    auto& session = bed.image_session();
    SimTime t0 = p.now();
    ASSERT_OK(session.read_all(p, "/big"));
    cold_s = to_seconds(p.now() - t0);
    bed.nfs_client()->drop_caches();  // new session, proxy cache stays warm
    t0 = p.now();
    ASSERT_OK(session.read_all(p, "/big"));
    warm_s = to_seconds(p.now() - t0);
  });
  EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();
  EXPECT_LT(warm_s * 3, cold_s);
}

TEST(Testbed, WanCachedOutperformsWanOnRereadWorkload) {
  // The §4.2 claim in miniature: re-use across iterations favours WAN+C.
  double wan_s = 0, wanc_s = 0;
  for (bool cached : {false, true}) {
    Testbed bed(options_for(cached ? Scenario::kWanCached : Scenario::kWan));
    auto content = blob::make_synthetic(2, 1_MiB, 0, 2.0);
    ASSERT_TRUE(bed.image_fs().put_file("/exports/images/app", content).is_ok());
    double* out = cached ? &wanc_s : &wan_s;
    bed.kernel().run_process("t", [&](sim::Process& p) {
      ASSERT_TRUE(bed.mount(p).is_ok());
      SimTime t0 = p.now();
      for (int iter = 0; iter < 4; ++iter) {
        ASSERT_OK(bed.image_session().read_all(p, "/app"));
        // Interactive session boundary: kernel cache dropped (new process
        // images), proxy disk cache persists.
        bed.nfs_client()->drop_caches();
      }
      *out = to_seconds(p.now() - t0);
    });
    EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();
  }
  EXPECT_LT(wanc_s, wan_s * 0.55);  // paper: >30% better; here re-reads dominate
}

TEST(Testbed, CloneViaGvfsBeatsPlainNfs) {
  double gvfs_s = 0, plain_s = 0;
  for (bool gvfs_mode : {true, false}) {
    Testbed bed(options_for(gvfs_mode ? Scenario::kWanCached : Scenario::kPlainNfsWan));
    auto paths = bed.install_image(small_image());
    ASSERT_TRUE(paths.is_ok());
    double* out = gvfs_mode ? &gvfs_s : &plain_s;
    bed.kernel().run_process("t", [&](sim::Process& p) {
      ASSERT_TRUE(bed.mount(p).is_ok());
      vm::CloneConfig cfg;
      cfg.image = *paths;
      cfg.clone_dir = "/clones/c0";
      SimTime t0 = p.now();
      auto result = vm::VmCloner::clone(p, bed.image_session(), bed.local_session(), cfg);
      ASSERT_TRUE(result.is_ok()) << result.status().to_string();
      *out = to_seconds(p.now() - t0);
      EXPECT_TRUE(result->vm->resumed());
      // Integrity: the cloned memory state matches the golden image.
      EXPECT_EQ(blob::content_hash(**bed.local_session().fs().get_file("/clones/c0/vm1.vmss")),
                blob::content_hash(*vm::memory_state_blob(small_image())));
    });
    EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();
  }
  // The paper's headline: enhanced GVFS cloning vastly outperforms plain NFS.
  EXPECT_LT(gvfs_s * 3, plain_s);
}

TEST(Testbed, SecondCloneFromWarmCachesMuchFaster) {
  Testbed bed(options_for(Scenario::kWanCached));
  auto paths = bed.install_image(small_image());
  ASSERT_TRUE(paths.is_ok());
  double first_s = 0, second_s = 0;
  double first_mem_s = 0, second_mem_s = 0;
  bed.kernel().run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(bed.mount(p).is_ok());
    for (int i = 0; i < 2; ++i) {
      vm::CloneConfig cfg;
      cfg.image = *paths;
      cfg.clone_dir = "/clones/c" + std::to_string(i);
      cfg.clone_name = "clone" + std::to_string(i);
      SimTime t0 = p.now();
      auto result = vm::VmCloner::clone(p, bed.image_session(), bed.local_session(), cfg);
      ASSERT_TRUE(result.is_ok());
      (i == 0 ? first_s : second_s) = to_seconds(p.now() - t0);
      (i == 0 ? first_mem_s : second_mem_s) = result->timing.copy_mem_s;
      // Fresh kernel caches per cloning session; proxy caches stay warm.
      bed.nfs_client()->drop_caches();
    }
  });
  EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();
  // At paper scale (320 MB) the memory-state transfer dominates; at test
  // scale the fixed configure/resume floor does, so assert on the transfer
  // phase (warm caches >= 2x) plus overall improvement.
  EXPECT_LT(second_mem_s * 2, first_mem_s);
  EXPECT_LT(second_s, first_s);
}

TEST(Testbed, LanSecondLevelCacheSpeedsFirstClone) {
  // WAN-S3 in miniature: image pre-cached on the LAN server.
  auto opt = options_for(Scenario::kWanCached);
  opt.shared_l2_cache = true;
  Testbed bed(opt);
  auto paths = bed.install_image(small_image());
  ASSERT_TRUE(paths.is_ok());

  auto opt2 = options_for(Scenario::kWanCached);
  Testbed direct(opt2);
  auto paths2 = direct.install_image(small_image());
  ASSERT_TRUE(paths2.is_ok());

  double with_lan_s = 0, without_lan_s = 0;
  bed.kernel().run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(bed.prewarm_lan_cache(p, *paths).is_ok());
    ASSERT_TRUE(bed.mount(p).is_ok());
    vm::CloneConfig cfg;
    cfg.image = *paths;
    cfg.clone_dir = "/clones/s3";
    SimTime t0 = p.now();
    ASSERT_TRUE(vm::VmCloner::clone(p, bed.image_session(), bed.local_session(), cfg).is_ok());
    with_lan_s = to_seconds(p.now() - t0);
  });
  direct.kernel().run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(direct.mount(p).is_ok());
    vm::CloneConfig cfg;
    cfg.image = *paths2;
    cfg.clone_dir = "/clones/s2";
    SimTime t0 = p.now();
    ASSERT_TRUE(
        vm::VmCloner::clone(p, direct.image_session(), direct.local_session(), cfg).is_ok());
    without_lan_s = to_seconds(p.now() - t0);
  });
  EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();
  EXPECT_EQ(direct.kernel().failed_processes(), 0) << direct.kernel().failed_names_joined();
  EXPECT_LT(with_lan_s, without_lan_s);
}

TEST(Testbed, WriteThroughL2ReachesOrigin) {
  // The LAN L2 shares read-only data (§3.2.1), so a node's write-back must
  // pass through it to the origin. Were the L2 write-back, it would
  // acknowledge the bytes and keep them where no middleware signal reaches,
  // and the next cold-cache drop would lose the only copy.
  auto opt = options_for(Scenario::kWanCached);
  opt.shared_l2_cache = true;
  Testbed bed(opt);
  ASSERT_NE(bed.lan_proxy(), nullptr);
  blob::BlobRef data = blob::make_synthetic(77, 300_KiB, 0.0, 1.0);
  const u64 want = blob::content_hash(*data);

  bed.kernel().run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(bed.mount(p).is_ok());
    ASSERT_TRUE(bed.image_session().put(p, "/results.bin", data).is_ok());
    ASSERT_TRUE(bed.image_session().flush(p).is_ok());
    ASSERT_TRUE(bed.signal_write_back(p).is_ok());
  });
  ASSERT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();
  EXPECT_EQ(bed.block_cache()->dirty_blocks(), 0u);
  auto origin = bed.image_fs().get_file(bed.image_dir() + "/results.bin");
  ASSERT_TRUE(origin.is_ok());
  EXPECT_EQ((*origin)->size(), 300_KiB);
  EXPECT_EQ(blob::content_hash(**origin), want);

  // Cold caches on every level: the origin's copy is what a new session reads.
  bed.drop_all_caches();
  bed.kernel().run_process("reread", [&](sim::Process& p) {
    auto back = bed.image_session().read_all(p, "/results.bin");
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(blob::content_hash(**back), want);
  });
  EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();
}

TEST(Testbed, ParallelClonesScale) {
  // Table 1 in miniature: 4 distinct images cloned sequentially vs in
  // parallel on 4 nodes sharing the WAN + image server.
  double sequential_s = 0, parallel_s = 0;
  {
    auto opt = options_for(Scenario::kWanCached);
    Testbed bed(opt);
    std::vector<vm::VmImagePaths> images;
    for (int i = 0; i < 4; ++i) {
      images.push_back(*bed.install_image(small_image("vm" + std::to_string(i), 100 + i)));
    }
    bed.kernel().run_process("t", [&](sim::Process& p) {
      ASSERT_TRUE(bed.mount(p).is_ok());
      SimTime t0 = p.now();
      for (int i = 0; i < 4; ++i) {
        vm::CloneConfig cfg;
        cfg.image = images[static_cast<size_t>(i)];
        cfg.clone_dir = "/clones/s" + std::to_string(i);
        ASSERT_TRUE(
            vm::VmCloner::clone(p, bed.image_session(), bed.local_session(), cfg).is_ok());
      }
      sequential_s = to_seconds(p.now() - t0);
    });
    EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();
  }
  {
    auto opt = options_for(Scenario::kWanCached);
    opt.compute_nodes = 4;
    Testbed bed(opt);
    std::vector<vm::VmImagePaths> images;
    for (int i = 0; i < 4; ++i) {
      images.push_back(*bed.install_image(small_image("vm" + std::to_string(i), 100 + i)));
    }
    SimTime end = 0;
    for (int i = 0; i < 4; ++i) {
      bed.kernel().spawn("clone" + std::to_string(i), [&, i](sim::Process& p) {
        ASSERT_TRUE(bed.mount(p, i).is_ok());
        vm::CloneConfig cfg;
        cfg.image = images[static_cast<size_t>(i)];
        cfg.clone_dir = "/clones/p" + std::to_string(i);
        ASSERT_TRUE(
            vm::VmCloner::clone(p, bed.image_session(i), bed.local_session(i), cfg).is_ok());
        end = std::max(end, p.now());
      });
    }
    bed.kernel().run();
    parallel_s = to_seconds(end);
    EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();
  }
  // Flows are latency/flow-limited, not pipe-limited: parallel wins big.
  EXPECT_LT(parallel_s * 2, sequential_s);
}

TEST(Testbed, ZeroFilterStatisticShape) {
  // §3.2.2: reading a mostly-zero memory state via a zero-map-only meta file
  // filters the overwhelming majority of client reads at the proxy.
  auto opt = options_for(Scenario::kWanCached);
  opt.enable_meta = true;
  Testbed bed(opt);
  auto spec = small_image();
  auto paths = bed.install_image(spec);
  ASSERT_TRUE(paths.is_ok());
  // Replace the default meta (file-channel) with a zero-map-only one to
  // exercise the block path, as the paper's statistic does.
  vm::VmImagePaths server_paths{bed.image_dir(), spec.name};
  ASSERT_TRUE(vm::generate_vmss_metadata(bed.image_fs(), server_paths, 8_KiB,
                                         /*with_file_channel=*/false).is_ok());
  bed.kernel().run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(bed.mount(p).is_ok());
    auto back = bed.image_session().read_all(p, "/vm1.vmss");
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(blob::content_hash(**back),
              blob::content_hash(*vm::memory_state_blob(spec)));
  });
  EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();
  u64 filtered = bed.client_proxy()->zero_filtered_reads();
  // ~92% of pages are zero; at 32 KiB requests (8 pages each) the fully-zero
  // fraction is ~0.92^8 ~ 0.51. Expect a large but not total filter rate.
  EXPECT_GT(filtered, 0u);
}

TEST(Testbed, SuspendWritesBackThroughFileChannel) {
  // Persistent-VM scenario (§3.2.3 first case): modify, suspend, and the
  // middleware write-back lands the new state on the image server.
  Testbed bed(options_for(Scenario::kWanCached));
  auto spec = small_image();
  auto paths = bed.install_image(spec);
  ASSERT_TRUE(paths.is_ok());
  auto new_state = blob::make_synthetic(0xbeef, spec.memory_bytes, 0.85, 3.0);
  bed.kernel().run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(bed.mount(p).is_ok());
    VmSetupOptions vopt;
    vopt.spec = spec;
    vopt.resume = true;
    auto setup = prepare_vm(p, bed, vopt);
    ASSERT_TRUE(setup.is_ok());
    ASSERT_TRUE(setup->vm->suspend(p, new_state).is_ok());
    ASSERT_TRUE(bed.signal_write_back(p).is_ok());
  });
  EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();
  auto server_state = bed.image_fs().get_file(bed.image_dir() + paths->vmss());
  ASSERT_TRUE(server_state.is_ok());
  EXPECT_EQ(blob::content_hash(**server_state), blob::content_hash(*new_state));
}

TEST(Testbed, LocalScenarioRunsWorkloads) {
  Testbed bed(options_for(Scenario::kLocal));
  bed.kernel().run_process("t", [&](sim::Process& p) {
    VmSetupOptions vopt;
    vopt.spec = small_image();
    auto setup = prepare_vm(p, bed, vopt);
    ASSERT_TRUE(setup.is_ok());
    workload::SyntheticConfig wcfg;
    wcfg.file_bytes = 4_MiB;
    wcfg.ops = 64;
    workload::SyntheticWorkload wl(wcfg);
    ASSERT_TRUE(wl.install(*setup->guest).is_ok());
    auto report = wl.run(p, *setup->guest);
    ASSERT_TRUE(report.is_ok());
    EXPECT_GT(report->total_s(), 0.0);
  });
  EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();
}

TEST(Testbed, ScenarioOrderingForColdStreamRead) {
  // Cold sequential read of one file: Local < LAN < WAN-family.
  std::map<Scenario, double> times;
  for (Scenario s : {Scenario::kLocal, Scenario::kLan, Scenario::kWan,
                     Scenario::kPlainNfsWan}) {
    Testbed bed(options_for(s));
    auto content = blob::make_synthetic(3, 2_MiB, 0, 2.0);
    ASSERT_TRUE(bed.image_fs().put_file(bed.image_dir() + "/f", content).is_ok());
    bed.kernel().run_process("t", [&](sim::Process& p) {
      ASSERT_TRUE(bed.mount(p).is_ok());
      SimTime t0 = p.now();
      auto back = bed.image_session().read_all(p, "/f");
      ASSERT_TRUE(back.is_ok()) << scenario_name(s) << ": " << back.status().to_string();
      EXPECT_EQ(blob::content_hash(**back), blob::content_hash(*content));
      times[s] = to_seconds(p.now() - t0);
    });
    EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();
  }
  EXPECT_LT(times[Scenario::kLocal], times[Scenario::kLan]);
  EXPECT_LT(times[Scenario::kLan], times[Scenario::kWan]);
  // Plain NFS (8 KiB blocks, no pipelining) is the slowest of all.
  EXPECT_GT(times[Scenario::kPlainNfsWan], times[Scenario::kWan]);
}

}  // namespace
}  // namespace gvfs::core
