// Ablation: multi-level proxy cascades (§3.2.1 "a series of proxies ... can
// be cascaded between client and server"). Measures first-clone time on a
// fresh compute server when N-1 earlier compute servers on the same LAN
// already pulled the image: without a second-level LAN proxy every server
// pays the WAN; with one, only the first does.
#include "bench_util.h"
#include "vm/vm_cloner.h"

using namespace gvfs;

namespace {

Result<std::vector<double>> run(bool lan_level, int nodes, bench::MetricsLog& mlog) {
  core::TestbedOptions opt;
  opt.scenario = core::Scenario::kWanCached;
  opt.shared_l2_cache = lan_level;
  opt.compute_nodes = nodes;
  core::Testbed bed(opt);
  auto image = bed.install_image(bench::clone_vm_spec());
  if (!image.is_ok()) return image.status();
  std::vector<double> times;
  Status st = Status::ok();
  // Each node clones once, in turn — fresh node, possibly warm LAN level.
  bed.kernel().run_process("seq", [&](sim::Process& p) {
    for (int i = 0; i < nodes; ++i) {
      if (Status m = bed.mount(p, i); !m.is_ok()) {
        st = m;
        return;
      }
      vm::CloneConfig cfg;
      cfg.image = *image;
      cfg.clone_dir = "/clones/n" + std::to_string(i);
      SimTime t0 = p.now();
      auto result =
          vm::VmCloner::clone(p, bed.image_session(i), bed.local_session(i), cfg);
      if (!result.is_ok()) {
        st = result.status();
        return;
      }
      times.push_back(to_seconds(p.now() - t0));
    }
  });
  if (!st.is_ok()) return st;
  bench::require_no_failed_processes(bed.kernel(), "ablate_cascade");
  mlog.capture(lan_level ? "2level" : "1level", bed);
  return times;
}

}  // namespace

int main() {
  bench::BenchReport rep("ablate_cascade");
  bench::MetricsLog mlog;
  constexpr int kNodes = 4;
  bench::banner("Ablation: second-level LAN cache proxy across cluster nodes");
  auto flat = run(false, kNodes, mlog);
  auto cascaded = run(true, kNodes, mlog);
  if (!flat.is_ok() || !cascaded.is_ok()) {
    std::fprintf(stderr, "run failed\n");
    return 1;
  }
  bench::Table table({"node (fresh compute server)", "1-level (s)", "2-level LAN (s)"});
  for (int i = 0; i < kNodes; ++i) {
    table.add_row({std::to_string(i + 1), fmt_double((*flat)[static_cast<size_t>(i)], 1),
                   fmt_double((*cascaded)[static_cast<size_t>(i)], 1)});
  }
  rep.add_table("cascade", table);
  mlog.attach(rep);
  rep.write();
  table.print();
  std::printf("\nExpectation: with the cascade, node 1 pays the WAN once and nodes\n"
              "2..%d clone at LAN speed (the WAN-S3 effect).\n", kNodes);
  return 0;
}
