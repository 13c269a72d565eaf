// gvfs_sim — command-line driver for the GVFS testbed.
//
// Run any paper scenario with any workload (or a custom I/O trace), sweep
// the proxy-cache and extension knobs, and get a timing/statistics report:
//
//   gvfs_sim --scenario=wan+c --workload=latex
//   gvfs_sim --scenario=wan   --workload=kernel --runs=2
//   gvfs_sim --scenario=wan+c --workload=clone --clones=8
//   gvfs_sim --scenario=wan+c --workload=trace --trace-file=app.trace
//   gvfs_sim --scenario=wan+c --workload=synthetic --prefetch=8 --streams=4
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/flags.h"
#include "gvfs/experiment.h"
#include "gvfs/testbed.h"
#include "vm/vm_cloner.h"
#include "workload/kernel_compile.h"
#include "workload/latex.h"
#include "workload/specseis.h"
#include "workload/synthetic.h"
#include "workload/trace.h"

using namespace gvfs;

namespace {

Result<core::Scenario> parse_scenario(const std::string& s) {
  if (s == "local") return core::Scenario::kLocal;
  if (s == "lan") return core::Scenario::kLan;
  if (s == "wan") return core::Scenario::kWan;
  if (s == "wan+c" || s == "wanc") return core::Scenario::kWanCached;
  if (s == "nfs") return core::Scenario::kPlainNfsWan;
  return err(ErrCode::kInval, "scenario must be local|lan|wan|wan+c|nfs");
}

void print_report(const workload::WorkloadReport& report) {
  std::printf("%-24s %10s\n", "phase", "seconds");
  std::printf("-----------------------------------\n");
  for (const auto& ph : report.phases) {
    std::printf("%-24s %10.2f\n", ph.name.c_str(), ph.seconds);
  }
  std::printf("%-24s %10.2f\n", "TOTAL", report.total_s());
}

void print_stats(core::Testbed& bed) {
  if (auto* proxy = bed.client_proxy()) {
    std::printf("\nclient proxy : %llu calls, %llu forwarded, %llu block-cache hits, "
                "%llu file-cache hits, %llu zero-filtered, %llu writes absorbed, "
                "%llu prefetched\n",
                static_cast<unsigned long long>(proxy->calls_received()),
                static_cast<unsigned long long>(proxy->calls_forwarded()),
                static_cast<unsigned long long>(proxy->reads_served_from_block_cache()),
                static_cast<unsigned long long>(proxy->reads_served_from_file_cache()),
                static_cast<unsigned long long>(proxy->zero_filtered_reads()),
                static_cast<unsigned long long>(proxy->writes_absorbed()),
                static_cast<unsigned long long>(proxy->blocks_prefetched()));
  }
  if (auto* cache = bed.block_cache()) {
    std::printf("block cache  : %llu hits / %llu misses, %llu resident blocks, "
                "%llu dirty, %llu banks\n",
                static_cast<unsigned long long>(cache->hits()),
                static_cast<unsigned long long>(cache->misses()),
                static_cast<unsigned long long>(cache->resident_blocks()),
                static_cast<unsigned long long>(cache->dirty_blocks()),
                static_cast<unsigned long long>(cache->banks_created()));
  }
  if (auto* client = bed.nfs_client()) {
    std::printf("nfs client   : %llu RPCs, %s read / %s written on the wire\n",
                static_cast<unsigned long long>(client->rpcs_sent()),
                fmt_bytes(client->bytes_read_wire()).c_str(),
                fmt_bytes(client->bytes_written_wire()).c_str());
  }
  if (auto* link = bed.wan_up()) {
    std::printf("wan          : %s up / %s down\n",
                fmt_bytes(link->bytes_sent()).c_str(),
                fmt_bytes(bed.wan_down()->bytes_sent()).c_str());
  }
}

struct Options {
  std::string scenario = "wan+c";
  std::string workload = "synthetic";
  std::string trace_file;
  std::string write_policy = "write-back";
  u32 runs = 1;
  u32 clones = 4;
  u32 prefetch = 0;
  u32 streams = 1;
  u64 cache_bytes = 8_GiB;
  u32 cache_assoc = 16;
  u64 cache_block = 32_KiB;
  bool lan_l2 = false;
  bool meta = true;
  u64 vm_memory = 320_MiB;
  u64 vm_disk = u64{1638} * 1_MiB;
  u32 synthetic_ops = 2000;
  u64 synthetic_bytes = 64_MiB;
  double read_fraction = 0.8;
  bool sequential = false;
};

int run_clone(core::Testbed& bed, const Options& o) {
  std::vector<vm::VmImagePaths> images;
  for (u32 i = 0; i < o.clones; ++i) {
    vm::VmImageSpec spec;
    spec.name = "vm" + std::to_string(i);
    spec.seed = 42 + i;
    spec.memory_bytes = o.vm_memory;
    spec.disk_bytes = o.vm_disk;
    auto paths = bed.install_image(spec);
    if (!paths.is_ok()) {
      std::fprintf(stderr, "install: %s\n", paths.status().to_string().c_str());
      return 1;
    }
    images.push_back(*paths);
  }
  Status st = Status::ok();
  bed.kernel().run_process("cloner", [&](sim::Process& p) {
    if (Status m = bed.mount(p); !m.is_ok()) {
      st = m;
      return;
    }
    for (u32 i = 0; i < o.clones; ++i) {
      vm::CloneConfig cfg;
      cfg.image = images[i];
      cfg.clone_dir = "/clones/c" + std::to_string(i);
      SimTime t0 = p.now();
      auto result = vm::VmCloner::clone(p, bed.image_session(), bed.local_session(), cfg);
      if (!result.is_ok()) {
        st = result.status();
        return;
      }
      std::printf("clone %u: %6.1f s  [cfg %.1f | mem %.1f | conf %.1f | resume %.1f]\n",
                  i, to_seconds(p.now() - t0), result->timing.copy_cfg_s,
                  result->timing.copy_mem_s, result->timing.configure_s,
                  result->timing.resume_s);
      if (auto* client = bed.nfs_client()) client->drop_caches();
    }
  });
  if (!st.is_ok()) {
    std::fprintf(stderr, "clone failed: %s\n", st.to_string().c_str());
    return 1;
  }
  print_stats(bed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  FlagParser flags("gvfs_sim", "drive GVFS paper scenarios and workloads");
  flags.add_string("scenario", &o.scenario, "local|lan|wan|wan+c|nfs");
  flags.add_string("workload", &o.workload,
                   "specseis|latex|kernel|synthetic|trace|clone");
  flags.add_string("trace-file", &o.trace_file, "trace file for --workload=trace");
  flags.add_string("write-policy", &o.write_policy, "write-back|write-through");
  flags.add_u32("runs", &o.runs, "consecutive workload runs (cold then warm)");
  flags.add_u32("clones", &o.clones, "images to clone for --workload=clone");
  flags.add_u32("prefetch", &o.prefetch, "proxy read-ahead depth in blocks");
  flags.add_u32("streams", &o.streams, "parallel streams for the file channel");
  flags.add_u64("cache-bytes", &o.cache_bytes, "proxy disk cache capacity");
  flags.add_u32("cache-assoc", &o.cache_assoc, "proxy cache associativity");
  flags.add_u64("cache-block", &o.cache_block, "proxy cache block size");
  flags.add_bool("lan-l2", &o.lan_l2, "add a LAN second-level cache proxy");
  flags.add_bool("meta", &o.meta, "honour meta-data files");
  flags.add_u64("vm-memory", &o.vm_memory, "VM memory state bytes");
  flags.add_u64("vm-disk", &o.vm_disk, "VM virtual disk bytes");
  flags.add_u32("ops", &o.synthetic_ops, "synthetic workload: operation count");
  flags.add_u64("bytes", &o.synthetic_bytes, "synthetic workload: file size");
  flags.add_double("read-fraction", &o.read_fraction, "synthetic: read share");
  flags.add_bool("sequential", &o.sequential, "synthetic: sequential access");
  if (Status st = flags.parse(argc - 1, argv + 1); !st.is_ok()) {
    std::fprintf(stderr, "%s\n%s", st.to_string().c_str(), flags.usage().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage().c_str());
    return 0;
  }

  auto scenario = parse_scenario(o.scenario);
  if (!scenario.is_ok()) {
    std::fprintf(stderr, "%s\n", scenario.status().to_string().c_str());
    return 2;
  }
  core::TestbedOptions opt;
  opt.scenario = *scenario;
  opt.write_policy = o.write_policy == "write-through"
                         ? cache::WritePolicy::kWriteThrough
                         : cache::WritePolicy::kWriteBack;
  opt.block_cache.capacity_bytes = o.cache_bytes;
  opt.block_cache.associativity = o.cache_assoc;
  opt.block_cache.block_size = o.cache_block;
  opt.prefetch_depth = o.prefetch;
  opt.file_channel_streams = o.streams;
  opt.shared_l2_cache = o.lan_l2;
  opt.enable_meta = o.meta;
  core::Testbed bed(opt);
  std::printf("scenario %s, workload %s\n", core::scenario_name(*scenario),
              o.workload.c_str());

  if (o.workload == "clone") return run_clone(bed, o);

  // VM-hosted workloads share a runner.
  auto run_hosted = [&](auto& wl) -> int {
    Status st = Status::ok();
    bed.kernel().run_process("driver", [&](sim::Process& p) {
      core::VmSetupOptions vopt;
      vopt.spec.name = "appvm";
      vopt.spec.memory_bytes = std::max<u64>(o.vm_memory, 64_MiB);
      vopt.spec.disk_bytes = std::max<u64>(o.vm_disk, 2_GiB);
      auto setup = core::prepare_vm(p, bed, vopt);
      if (!setup.is_ok()) {
        st = setup.status();
        return;
      }
      if (Status i = wl.install(*setup->guest); !i.is_ok()) {
        st = i;
        return;
      }
      bed.drop_all_caches();
      setup->vm->guest_cache().drop_all();
      for (u32 run = 0; run < o.runs; ++run) {
        auto report = wl.run(p, *setup->guest);
        if (!report.is_ok()) {
          st = report.status();
          return;
        }
        if (o.runs > 1) std::printf("\nrun %u (%s):\n", run + 1, run == 0 ? "cold" : "warm");
        print_report(*report);
      }
    });
    if (!st.is_ok()) {
      std::fprintf(stderr, "workload failed: %s\n", st.to_string().c_str());
      return 1;
    }
    print_stats(bed);
    return 0;
  };

  if (o.workload == "specseis") {
    workload::SpecSeisWorkload wl;
    return run_hosted(wl);
  }
  if (o.workload == "latex") {
    workload::LatexWorkload wl;
    return run_hosted(wl);
  }
  if (o.workload == "kernel") {
    workload::KernelCompileWorkload wl;
    return run_hosted(wl);
  }
  if (o.workload == "synthetic") {
    workload::SyntheticConfig cfg;
    cfg.file_bytes = o.synthetic_bytes;
    cfg.ops = o.synthetic_ops;
    cfg.read_fraction = o.read_fraction;
    cfg.sequential = o.sequential;
    workload::SyntheticWorkload wl(cfg);
    return run_hosted(wl);
  }
  if (o.workload == "trace") {
    if (o.trace_file.empty()) {
      std::fprintf(stderr, "--workload=trace needs --trace-file\n");
      return 2;
    }
    std::ifstream in(o.trace_file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", o.trace_file.c_str());
      return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    auto ops = workload::TraceWorkload::parse(buf.str());
    if (!ops.is_ok()) {
      std::fprintf(stderr, "%s\n", ops.status().to_string().c_str());
      return 2;
    }
    workload::TraceWorkload wl(*ops);
    return run_hosted(wl);
  }
  std::fprintf(stderr, "unknown workload '%s'\n%s", o.workload.c_str(),
               flags.usage().c_str());
  return 2;
}
