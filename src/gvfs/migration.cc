#include "gvfs/migration.h"

namespace gvfs::core {

Result<MigrationResult> migrate_vm(sim::Process& p, Testbed& bed,
                                   const vm::VmImagePaths& image,
                                   vm::VmMonitor& src_vm,
                                   blob::BlobRef new_memory_state, int src_node,
                                   int dst_node) {
  MigrationResult out;

  // 1. Suspend at the source: guest sync + full memory-state write. With a
  //    write-back proxy this completes at local-disk speed.
  SimTime t0 = p.now();
  GVFS_RETURN_IF_ERROR(src_vm.suspend(p, std::move(new_memory_state)));
  SimTime t1 = p.now();
  out.timing.suspend_s = to_seconds(t1 - t0);

  // 2. Middleware pushes the source's dirty state home (compressed upload of
  //    the file-cache entry, write-back of dirty blocks).
  GVFS_RETURN_IF_ERROR(bed.signal_write_back(p, src_node));
  SimTime t2 = p.now();
  out.timing.write_back_s = to_seconds(t2 - t1);

  // 3. Middleware re-scans the new state so the destination's proxy gets a
  //    fresh zero map + file-channel actions; destination caches that might
  //    hold the stale state are flushed (session-based consistency).
  GVFS_RETURN_IF_ERROR(bed.refresh_image_metadata(p, image));
  GVFS_RETURN_IF_ERROR(bed.signal_flush(p, dst_node));
  SimTime t3 = p.now();
  out.timing.metadata_s = to_seconds(t3 - t2);

  // 4. Resume on the destination: memory state via the file channel, virtual
  //    disk on demand.
  GVFS_RETURN_IF_ERROR(bed.mount(p, dst_node));
  vfs::FsSession& dst = bed.image_session(dst_node);
  out.vm = std::make_unique<vm::VmMonitor>();
  out.vm->attach(dst, image.cfg(), image.vmss(), dst, image.flat_vmdk());
  GVFS_RETURN_IF_ERROR(out.vm->resume(p));
  out.timing.resume_s = to_seconds(p.now() - t3);
  return out;
}

}  // namespace gvfs::core
