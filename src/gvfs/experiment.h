// Experiment helpers shared by the integration tests and the bench harnesses
// that regenerate the paper's figures: set up a VM whose state lives on a
// testbed's image store and run workloads inside it.
#pragma once

#include <memory>

#include "gvfs/testbed.h"
#include "vm/guest_fs.h"
#include "vm/vm_monitor.h"

namespace gvfs::core {

struct VmSetup {
  vm::VmImagePaths image;
  std::unique_ptr<vm::VmMonitor> vm;
  std::unique_ptr<vm::GuestFs> guest;
};

struct VmSetupOptions {
  vm::VmImageSpec spec;
  int node = 0;
  // Resume (full .vmss read) before returning. App-execution experiments
  // measure run time only, so they skip it; cloning experiments go through
  // VmCloner instead.
  bool resume = false;
};

// Install the image on the testbed's store, mount it on the node, and attach
// a VM monitor whose state files all live on that mount.
Result<VmSetup> prepare_vm(sim::Process& p, Testbed& bed, const VmSetupOptions& opt);

}  // namespace gvfs::core
