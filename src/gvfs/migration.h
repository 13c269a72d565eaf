// VM migration across Grid resources — the paper's stated future work
// ("distributed virtual file system support for efficient checkpointing and
// migration of VM instances for load-balancing and fault-tolerant
// execution", §6) built from the mechanisms the paper already provides:
//
//   1. suspend at the source: the new memory state lands in the source
//      proxy's write-back caches at local speed;
//   2. middleware write-back: the state travels to the image server once,
//      compressed, over the file channel;
//   3. middleware re-generates the .vmss meta-data for the new state;
//   4. resume at the destination: the file channel delivers the fresh
//      state, the virtual disk stays on demand.
#pragma once

#include <memory>

#include "gvfs/testbed.h"
#include "vm/vm_monitor.h"

namespace gvfs::core {

struct MigrationTiming {
  double suspend_s = 0;     // VM down, state in source caches
  double write_back_s = 0;  // state pushed to the image server
  double metadata_s = 0;    // middleware re-scans the new state
  double resume_s = 0;      // destination pulls + resumes
  [[nodiscard]] double total_s() const {
    return suspend_s + write_back_s + metadata_s + resume_s;
  }
  // The VM is unavailable from suspend-start to resume-end.
  [[nodiscard]] double downtime_s() const { return total_s(); }
};

struct MigrationResult {
  MigrationTiming timing;
  std::unique_ptr<vm::VmMonitor> vm;  // resumed on the destination
};

// Migrate `src_vm` (whose state lives at `image` on the testbed's image
// store, mounted on `src_node`) to `dst_node`. `new_memory_state` is the
// captured RAM image at suspend time.
Result<MigrationResult> migrate_vm(sim::Process& p, Testbed& bed,
                                   const vm::VmImagePaths& image,
                                   vm::VmMonitor& src_vm,
                                   blob::BlobRef new_memory_state, int src_node,
                                   int dst_node);

}  // namespace gvfs::core
