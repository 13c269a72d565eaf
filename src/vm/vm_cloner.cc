#include "vm/vm_cloner.h"

#include <algorithm>

namespace gvfs::vm {

namespace {

constexpr u64 kCopyChunk = 64_KiB;  // memory-state copy granularity
// Customizing the clone (hostname, user accounts, network) — scripted edits
// the middleware applies before resume.
constexpr SimDuration kConfigureTime = 2 * kSecond;

}  // namespace

Result<CloneResult> VmCloner::clone(sim::Process& p, vfs::FsSession& image_fs,
                                    vfs::FsSession& local_fs, const CloneConfig& cfg) {
  CloneResult out;
  std::string name = cfg.clone_name.empty() ? cfg.image.name : cfg.clone_name;
  out.clone_paths = VmImagePaths{cfg.clone_dir, name};
  GVFS_RETURN_IF_ERROR(local_fs.mkdirs(p, cfg.clone_dir));

  // 1. Copy the VM configuration file.
  SimTime t0 = p.now();
  GVFS_ASSIGN_OR_RETURN(blob::BlobRef cfg_data, image_fs.read_all(p, cfg.image.cfg()));
  GVFS_RETURN_IF_ERROR(local_fs.put(p, out.clone_paths.cfg(), cfg_data));
  SimTime t1 = p.now();
  out.timing.copy_cfg_s = to_seconds(t1 - t0);

  // 2. Copy the memory state file (the step every scenario pays differently:
  //    block-by-block over plain NFS, via the compressed file channel under
  //    GVFS, from warm caches on re-clones).
  GVFS_ASSIGN_OR_RETURN(vfs::Attr vmss, image_fs.stat(p, cfg.image.vmss()));
  GVFS_RETURN_IF_ERROR(local_fs.put(p, out.clone_paths.vmss(), blob::make_zero(0)));
  u64 off = 0;
  while (off < vmss.size) {
    u64 n = std::min<u64>(kCopyChunk, vmss.size - off);
    GVFS_ASSIGN_OR_RETURN(blob::BlobRef chunk,
                          image_fs.read(p, cfg.image.vmss(), off, n));
    if (chunk->size() == 0) break;
    GVFS_RETURN_IF_ERROR(local_fs.write(p, out.clone_paths.vmss(), off, chunk));
    off += chunk->size();
  }
  GVFS_RETURN_IF_ERROR(local_fs.flush(p));
  SimTime t2 = p.now();
  out.timing.copy_mem_s = to_seconds(t2 - t1);

  // 3. Symbolic links to the virtual disk files (no data motion).
  GVFS_RETURN_IF_ERROR(
      local_fs.symlink(p, out.clone_paths.vmdk(), cfg.image.vmdk()));
  GVFS_RETURN_IF_ERROR(
      local_fs.symlink(p, out.clone_paths.flat_vmdk(), cfg.image.flat_vmdk()));
  SimTime t3 = p.now();
  out.timing.links_s = to_seconds(t3 - t2);

  // 4. Configure the clone with user-specific information.
  p.delay(kConfigureTime);
  std::string patch = "uuid.bios = \"clone\"\ndisplayName = \"" + name + "\"\n";
  std::vector<u8> patch_raw(patch.begin(), patch.end());
  GVFS_ASSIGN_OR_RETURN(vfs::Attr cfg_attr, local_fs.stat(p, out.clone_paths.cfg()));
  GVFS_RETURN_IF_ERROR(local_fs.write(p, out.clone_paths.cfg(), cfg_attr.size,
                                      blob::make_bytes(std::move(patch_raw))));
  GVFS_RETURN_IF_ERROR(local_fs.flush(p));
  SimTime t4 = p.now();
  out.timing.configure_s = to_seconds(t4 - t3);

  // 5. Resume: memory state from the local copy, virtual disk through the
  //    symlink back to the image mount, writes into a local redo log.
  out.vm = std::make_unique<VmMonitor>();
  out.vm->attach(local_fs, out.clone_paths.cfg(), out.clone_paths.vmss(), image_fs,
                 cfg.image.flat_vmdk());
  if (cfg.use_redo_log) {
    auto redo = std::make_unique<RedoLog>(local_fs, cfg.clone_dir + "/" + name + ".redo");
    GVFS_RETURN_IF_ERROR(redo->create(p));
    out.vm->enable_redo_log(std::move(redo));
  }
  GVFS_RETURN_IF_ERROR(out.vm->resume(p));
  out.timing.resume_s = to_seconds(p.now() - t4);
  return out;
}

}  // namespace gvfs::vm
