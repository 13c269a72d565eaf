// Figure 6: VM cloning times (seconds) for a sequence of eight clonings of
// 320 MB-RAM / 1.6 GB-disk images, plus the two baselines quoted in the
// caption: full-image SCP copy (1127 s) and memory-state copy from a plain
// NFS mount (2060 s).
//
// Scenarios: Local; WAN-S1 (one golden image cloned eight times — temporal
// locality); WAN-S2 (eight distinct images — no locality); WAN-S3 (eight
// distinct images pre-cached on a LAN second-level proxy).
#include "bench_util.h"
#include "ssh/ssh.h"
#include "vm/vm_cloner.h"

using namespace gvfs;

namespace {

struct SeqResult {
  std::vector<double> times;
};

// Clone `count` images sequentially on node 0; images[i] selects the golden
// image for the i-th cloning.
Result<SeqResult> run_sequence(core::Testbed& bed,
                               const std::vector<vm::VmImagePaths>& images,
                               bool prewarm_lan = false) {
  SeqResult out;
  Status st = Status::ok();
  bed.kernel().run_process("cloner", [&](sim::Process& p) {
    if (prewarm_lan) {
      for (const auto& img : images) {
        Status w = bed.prewarm_lan_cache(p, img);
        if (!w.is_ok()) {
          st = w;
          return;
        }
      }
    }
    if (Status m = bed.mount(p); !m.is_ok()) {
      st = m;
      return;
    }
    for (std::size_t i = 0; i < images.size(); ++i) {
      vm::CloneConfig cfg;
      cfg.image = images[i];
      cfg.clone_dir = "/clones/c" + std::to_string(i);
      cfg.clone_name = "clone" + std::to_string(i);
      SimTime t0 = p.now();
      auto result = vm::VmCloner::clone(p, bed.image_session(), bed.local_session(), cfg);
      if (!result.is_ok()) {
        st = result.status();
        return;
      }
      out.times.push_back(to_seconds(p.now() - t0));
      // Each cloning is a fresh middleware session: kernel client caches are
      // cold, proxy disk caches persist (that is the point).
      if (auto* client = bed.nfs_client()) client->drop_caches();
    }
  });
  if (!st.is_ok()) return st;
  bench::require_no_failed_processes(bed.kernel(), "fig6 sequence");
  return out;
}

std::vector<vm::VmImagePaths> install_images(core::Testbed& bed, int count,
                                             bool distinct) {
  std::vector<vm::VmImagePaths> out;
  for (int i = 0; i < count; ++i) {
    if (distinct || i == 0) {
      auto paths = bed.install_image(
          bench::clone_vm_spec("vm" + std::to_string(distinct ? i : 0),
                               distinct ? 42 + static_cast<u64>(i) : 42));
      out.push_back(*paths);
    } else {
      out.push_back(out.front());
    }
  }
  return out;
}

}  // namespace

int main() {
  constexpr int kClones = 8;
  bench::BenchReport rep("fig6_cloning");
  bench::banner("Figure 6: VM cloning times (seconds), images 1..8");
  bench::Table table({"clone#", "Local", "WAN-S1", "WAN-S2", "WAN-S3"});

  std::vector<std::vector<double>> columns;

  // Local.
  {
    core::TestbedOptions opt;
    opt.scenario = core::Scenario::kLocal;
    core::Testbed bed(opt);
    auto images = install_images(bed, kClones, /*distinct=*/false);
    auto r = run_sequence(bed, images);
    if (!r.is_ok()) return 1;
    columns.push_back(r->times);
    rep.add_metrics("local", bed.metrics_json());
  }
  // WAN-S1: one image, eight clonings.
  {
    core::TestbedOptions opt;
    opt.scenario = core::Scenario::kWanCached;
    core::Testbed bed(opt);
    auto images = install_images(bed, kClones, /*distinct=*/false);
    auto r = run_sequence(bed, images);
    if (!r.is_ok()) return 1;
    columns.push_back(r->times);
    rep.add_metrics("wan_s1", bed.metrics_json());
  }
  // WAN-S2: eight distinct images.
  {
    core::TestbedOptions opt;
    opt.scenario = core::Scenario::kWanCached;
    core::Testbed bed(opt);
    auto images = install_images(bed, kClones, /*distinct=*/true);
    auto r = run_sequence(bed, images);
    if (!r.is_ok()) return 1;
    columns.push_back(r->times);
    rep.add_metrics("wan_s2", bed.metrics_json());
  }
  // WAN-S3: eight distinct images, pre-cached on the LAN second level.
  {
    core::TestbedOptions opt;
    opt.scenario = core::Scenario::kWanCached;
    opt.shared_l2_cache = true;
    core::Testbed bed(opt);
    auto images = install_images(bed, kClones, /*distinct=*/true);
    auto r = run_sequence(bed, images, /*prewarm_lan=*/true);
    if (!r.is_ok()) return 1;
    columns.push_back(r->times);
    rep.add_metrics("wan_s3", bed.metrics_json());
  }

  for (int i = 0; i < kClones; ++i) {
    std::vector<std::string> row{std::to_string(i + 1)};
    for (const auto& col : columns) {
      row.push_back(fmt_double(col[static_cast<std::size_t>(i)], 1));
    }
    table.add_row(std::move(row));
  }
  table.print();

  // ---- caption baselines ----------------------------------------------------
  core::TestbedOptions opt;
  {
    // SCP of the entire image (memory + disk) over the WAN.
    sim::SimKernel k;
    sim::Link wan(k, "wan", opt.net.wan);
    ssh::Scp scp(wan, opt.net.wan_cipher);
    double t = 0;
    k.run_process("scp", [&](sim::Process& p) {
      auto spec = bench::clone_vm_spec();
      scp.transfer(p, spec.memory_bytes + spec.disk_bytes);
      t = to_seconds(p.now());
    });
    bench::require_no_failed_processes(k, "fig6 scp baseline");
    std::printf("\nSCP full-image copy            : %.0f s (paper: 1127 s)\n", t);
    rep.add_scalar("scp_full_image_s", t);
  }
  {
    // Plain NFS mount: memory state copied block-by-block, no GVFS support.
    core::TestbedOptions popt;
    popt.scenario = core::Scenario::kPlainNfsWan;
    core::Testbed bed(popt);
    auto paths = bed.install_image(bench::clone_vm_spec());
    double t = 0;
    Status st = Status::ok();
    bed.kernel().run_process("cloner", [&](sim::Process& p) {
      if (Status m = bed.mount(p); !m.is_ok()) {
        st = m;
        return;
      }
      vm::CloneConfig cfg;
      cfg.image = *paths;
      cfg.clone_dir = "/clones/nfs";
      SimTime t0 = p.now();
      auto result = vm::VmCloner::clone(p, bed.image_session(), bed.local_session(), cfg);
      if (!result.is_ok()) st = result.status();
      t = to_seconds(p.now() - t0);
    });
    if (!st.is_ok()) {
      std::fprintf(stderr, "plain NFS clone failed: %s\n", st.to_string().c_str());
      return 1;
    }
    bench::require_no_failed_processes(bed.kernel(), "fig6 plain NFS baseline");
    std::printf("plain-NFS-mount memory copy    : %.0f s (paper: 2060 s)\n", t);
    rep.add_scalar("plain_nfs_memory_copy_s", t);
    rep.add_metrics("plain_nfs_baseline", bed.metrics_json());
  }
  std::printf("GVFS first clone (cold)        : %.0f s (paper: <160 s)\n",
              columns[2].front());
  std::printf("GVFS re-clone (warm, local)    : %.0f s (paper: ~25 s)\n",
              columns[1].back());
  std::printf("GVFS clone via LAN 2nd level   : %.0f s (paper: ~80 s)\n",
              columns[3].back());

  rep.add_table("fig6", table);
  rep.add_scalar("first_clone_cold_s", columns[2].front());
  rep.add_scalar("reclone_warm_s", columns[1].back());
  rep.add_scalar("clone_lan_second_level_s", columns[3].back());
  rep.write();
  return 0;
}
