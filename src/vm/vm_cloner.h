// VM cloning workflow (§3.2.3, benchmarked in §4.3): copy the configuration
// file, copy the memory state, symlink the virtual disk files, configure the
// clone with user-specific information, and resume it. The memory-state copy
// reads through whatever mount the image lives on — a local disk, plain NFS,
// or GVFS with all extensions — which is precisely what Figure 6 compares.
#pragma once

#include <memory>
#include <string>

#include "sim/kernel.h"
#include "vfs/fs_session.h"
#include "vm/vm_image.h"
#include "vm/vm_monitor.h"

namespace gvfs::vm {

struct CloneConfig {
  VmImagePaths image;          // paths on the image mount
  std::string clone_dir;       // destination on the compute server
  std::string clone_name;      // name of the clone (defaults to image name)
  bool use_redo_log = true;    // non-persistent clone
};

struct CloneTiming {
  double copy_cfg_s = 0;
  double copy_mem_s = 0;
  double links_s = 0;
  double configure_s = 0;
  double resume_s = 0;
  [[nodiscard]] double total_s() const {
    return copy_cfg_s + copy_mem_s + links_s + configure_s + resume_s;
  }
};

struct CloneResult {
  CloneTiming timing;
  std::unique_ptr<VmMonitor> vm;  // resumed and ready
  VmImagePaths clone_paths;       // on the compute server
};

class VmCloner {
 public:
  // `image_fs`: the mount the golden image is visible through.
  // `local_fs`: the compute server's local filesystem.
  static Result<CloneResult> clone(sim::Process& p, vfs::FsSession& image_fs,
                                   vfs::FsSession& local_fs, const CloneConfig& cfg);
};

}  // namespace gvfs::vm
