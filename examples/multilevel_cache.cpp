// Example: multi-level proxy cache hierarchy (§3.2.1). A cluster of compute
// servers shares a second-level GVFS proxy on a LAN server; the first clone
// pulls the golden image across the WAN once, after which every other node
// clones at LAN speed (the WAN-S3 configuration).
#include <cstdio>

#include "gvfs/testbed.h"
#include "vm/vm_cloner.h"

using namespace gvfs;

int main() {
  constexpr int kNodes = 3;
  core::TestbedOptions opt;
  opt.scenario = core::Scenario::kWanCached;
  opt.shared_l2_cache = true;
  opt.compute_nodes = kNodes;
  core::Testbed bed(opt);

  vm::VmImageSpec spec;
  spec.name = "lab-image";
  spec.memory_bytes = 320_MiB;
  spec.disk_bytes = u64{1638} * 1_MiB;
  auto image = bed.install_image(spec);
  if (!image.is_ok()) return 1;

  bed.kernel().run_process("rollout", [&](sim::Process& p) {
    for (int node = 0; node < kNodes; ++node) {
      if (!bed.mount(p, node).is_ok()) return;
      vm::CloneConfig cfg;
      cfg.image = *image;
      cfg.clone_dir = "/var/vms/clone";
      SimTime t0 = p.now();
      auto clone =
          vm::VmCloner::clone(p, bed.image_session(node), bed.local_session(node), cfg);
      if (!clone.is_ok()) {
        std::printf("node %d failed: %s\n", node, clone.status().to_string().c_str());
        return;
      }
      std::printf("node %d clone: %.1f s %s\n", node, to_seconds(p.now() - t0),
                  node == 0 ? "(pulls the image across the WAN into the LAN cache)"
                            : "(served by the LAN second-level proxy)");
    }
  });
  return 0;
}
