// Hosted VM monitor model (VMware GSX-style). The VMM stores machine state
// in regular files — which is exactly the property GVFS exploits — so its
// interaction with storage is: resume = read .cfg + the entire .vmss
// sequentially; run = guest disk I/O against the .vmdk (through the guest's
// own page cache, optionally redirected to a redo log); suspend = write the
// whole .vmss back. State files may live on different mounts (clones keep a
// local memory copy while the virtual disk stays symlinked to the image
// mount).
#pragma once

#include <memory>
#include <string>

#include "blob/blob.h"
#include "common/metrics.h"
#include "sim/kernel.h"
#include "vfs/buffer_cache.h"
#include "vfs/fs_session.h"
#include "vm/redo_log.h"

namespace gvfs::vm {

class VmMonitor {
 public:
  VmMonitor();

  // Wire the state files. `state_fs` holds .cfg/.vmss; `disk_fs` holds the
  // flat virtual disk (often a different mount for clones).
  void attach(vfs::FsSession& state_fs, std::string cfg_path, std::string vmss_path,
              vfs::FsSession& disk_fs, std::string disk_path);

  // Non-persistent mode: guest writes divert to a redo log.
  void enable_redo_log(std::unique_ptr<RedoLog> log) { redo_ = std::move(log); }
  [[nodiscard]] RedoLog* redo_log() { return redo_.get(); }

  // Read config + the whole memory state (the paper: "resuming a VMware VM
  // requires reading the entire memory state file").
  Status resume(sim::Process& p);

  // Write the full memory state back and flush (suspend of a persistent VM).
  Status suspend(sim::Process& p, blob::BlobRef new_memory_state);

  [[nodiscard]] bool resumed() const { return resumed_; }

  // ---- guest disk I/O ------------------------------------------------------
  Result<blob::BlobRef> disk_read(sim::Process& p, u64 offset, u64 len);
  Status disk_write(sim::Process& p, u64 offset, blob::BlobRef data);
  // Guest fsync / journal commit: push guest-cached dirty pages to the host
  // and flush the host session.
  Status sync(sim::Process& p);

  // ---- observability -------------------------------------------------------
  [[nodiscard]] vfs::BufferCache& guest_cache() { return *guest_cache_; }
  [[nodiscard]] u64 host_reads() const { return host_reads_.value(); }
  [[nodiscard]] u64 host_read_bytes() const { return host_read_bytes_.value(); }
  [[nodiscard]] u64 host_write_bytes() const { return host_write_bytes_.value(); }
  [[nodiscard]] u64 vmss_bytes_read() const { return vmss_bytes_read_.value(); }

  void register_metrics(metrics::Registry& r, const std::string& prefix) const {
    r.register_counter(prefix + "host_reads", &host_reads_);
    r.register_counter(prefix + "host_read_bytes", &host_read_bytes_);
    r.register_counter(prefix + "host_write_bytes", &host_write_bytes_);
    r.register_counter(prefix + "vmss_bytes_read", &vmss_bytes_read_);
  }

 private:
  // Guest-cache writeback: dirty page goes to redo log or the virtual disk.
  void writeback_page_(sim::Process& p, u64 page, const blob::BlobRef& data);

  vfs::FsSession* state_fs_ = nullptr;
  vfs::FsSession* disk_fs_ = nullptr;
  std::string cfg_path_;
  std::string vmss_path_;
  std::string disk_path_;
  std::unique_ptr<vfs::BufferCache> guest_cache_;
  std::unique_ptr<RedoLog> redo_;
  bool resumed_ = false;
  metrics::Counter host_reads_;
  metrics::Counter host_read_bytes_;
  metrics::Counter host_write_bytes_;
  metrics::Counter vmss_bytes_read_;

  static constexpr u64 kDiskKey = 1;  // single virtual disk per VM
};

}  // namespace gvfs::vm
