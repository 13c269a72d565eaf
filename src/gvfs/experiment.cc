#include "gvfs/experiment.h"

namespace gvfs::core {

Result<VmSetup> prepare_vm(sim::Process& p, Testbed& bed, const VmSetupOptions& opt) {
  VmSetup out;
  GVFS_ASSIGN_OR_RETURN(out.image, bed.install_image(opt.spec));
  GVFS_RETURN_IF_ERROR(bed.mount(p, opt.node));
  vfs::FsSession& session = bed.image_session(opt.node);
  out.vm = std::make_unique<vm::VmMonitor>();
  out.vm->attach(session, out.image.cfg(), out.image.vmss(), session,
                 out.image.flat_vmdk());
  if (opt.resume) {
    GVFS_RETURN_IF_ERROR(out.vm->resume(p));
  }
  out.guest = std::make_unique<vm::GuestFs>(*out.vm);
  return out;
}

}  // namespace gvfs::core
