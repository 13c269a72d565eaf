#include "vm/vm_monitor.h"

#include <algorithm>

#include "blob/extent_store.h"

namespace gvfs::vm {

namespace {

constexpr u64 kIoChunk = 64_KiB;  // VMM state-file read/write granularity
// CPU to rebuild the memory image on resume, and to save it on suspend.
constexpr double kMemLoadBps = 150.0 * 1_MiB;
constexpr double kMemSaveBps = 150.0 * 1_MiB;
constexpr SimDuration kDeviceInit = 1500 * kMillisecond;  // device state restore
constexpr u64 kGuestCacheBytes = 96_MiB;  // guest page cache share
constexpr u32 kGuestPage = 4_KiB;
constexpr SimDuration kGuestIoCpu = 15 * kMicrosecond;  // virtualized I/O exit cost

}  // namespace

VmMonitor::VmMonitor() {
  guest_cache_ = std::make_unique<vfs::BufferCache>(kGuestCacheBytes, kGuestPage);
  guest_cache_->set_writeback(
      [this](sim::Process& p, u64 /*file*/, u64 page, const blob::BlobRef& data) {
        writeback_page_(p, page, data);
      });
}

void VmMonitor::attach(vfs::FsSession& state_fs, std::string cfg_path,
                       std::string vmss_path, vfs::FsSession& disk_fs,
                       std::string disk_path) {
  state_fs_ = &state_fs;
  cfg_path_ = std::move(cfg_path);
  vmss_path_ = std::move(vmss_path);
  disk_fs_ = &disk_fs;
  disk_path_ = std::move(disk_path);
}

Status VmMonitor::resume(sim::Process& p) {
  if (state_fs_ == nullptr) return err(ErrCode::kInval, "VMM not attached");
  // Parse the configuration.
  GVFS_RETURN_IF_ERROR(state_fs_->read_all(p, cfg_path_).status());
  // Pull the entire memory state, chunk by chunk, rebuilding guest RAM.
  GVFS_ASSIGN_OR_RETURN(vfs::Attr vmss, state_fs_->stat(p, vmss_path_));
  u64 off = 0;
  while (off < vmss.size) {
    u64 n = std::min<u64>(kIoChunk, vmss.size - off);
    GVFS_ASSIGN_OR_RETURN(blob::BlobRef chunk, state_fs_->read(p, vmss_path_, off, n));
    if (chunk->size() == 0) break;
    vmss_bytes_read_.inc(chunk->size());
    p.delay(transfer_time(chunk->size(), kMemLoadBps));
    off += chunk->size();
  }
  // Restore device state / attach the disk descriptor.
  GVFS_RETURN_IF_ERROR(disk_fs_->stat(p, disk_path_).status());
  p.delay(kDeviceInit);
  resumed_ = true;
  return Status::ok();
}

Status VmMonitor::suspend(sim::Process& p, blob::BlobRef new_memory_state) {
  if (state_fs_ == nullptr) return err(ErrCode::kInval, "VMM not attached");
  GVFS_RETURN_IF_ERROR(sync(p));
  u64 size = new_memory_state ? new_memory_state->size() : 0;
  u64 off = 0;
  while (off < size) {
    u64 n = std::min<u64>(kIoChunk, size - off);
    auto slice = std::make_shared<blob::SliceBlob>(new_memory_state, off, n);
    p.delay(transfer_time(n, kMemSaveBps));
    GVFS_RETURN_IF_ERROR(state_fs_->write(p, vmss_path_, off, slice));
    off += n;
  }
  GVFS_RETURN_IF_ERROR(state_fs_->flush(p));
  resumed_ = false;
  return Status::ok();
}

void VmMonitor::writeback_page_(sim::Process& p, u64 page, const blob::BlobRef& data) {
  if (!data || data->size() == 0) return;
  u64 offset = page * kGuestPage;
  host_write_bytes_.inc(data->size());
  if (redo_) {
    (void)redo_->append(p, offset, data);
  } else {
    (void)disk_fs_->write(p, disk_path_, offset, data);
  }
}

Result<blob::BlobRef> VmMonitor::disk_read(sim::Process& p, u64 offset, u64 len) {
  if (disk_fs_ == nullptr) return err(ErrCode::kInval, "VMM not attached");
  if (len == 0) return blob::BlobRef(blob::make_zero(0));
  p.delay(kGuestIoCpu);
  std::vector<blob::Piece> out;
  u64 first = offset / kGuestPage;
  u64 last = (offset + len - 1) / kGuestPage;

  // Walk pages, coalescing consecutive guest-cache misses into one host read.
  u64 pg = first;
  while (pg <= last) {
    auto cached = guest_cache_->lookup(kDiskKey, pg);
    if (cached) {
      u64 pg_start = pg * kGuestPage;
      u64 lo = std::max(pg_start, offset);
      u64 hi = std::min({pg_start + cached->len, offset + len});
      if (lo < hi) {
        out.push_back({lo - offset, hi - lo, std::move(cached->data),
                       cached->off + (lo - pg_start)});
      }
      ++pg;
      continue;
    }
    // Miss run: extend while pages miss (and share redo-coverage class).
    bool via_redo = redo_ && redo_->covers(pg * kGuestPage);
    u64 run_end = pg + 1;
    while (run_end <= last && !guest_cache_->contains(kDiskKey, run_end)) {
      bool r = redo_ && redo_->covers(run_end * kGuestPage);
      if (r != via_redo) break;
      ++run_end;
    }
    u64 run_start_off = pg * kGuestPage;
    u64 run_len = (run_end - pg) * kGuestPage;
    blob::BlobRef data;
    if (via_redo) {
      GVFS_ASSIGN_OR_RETURN(data, redo_->read(p, run_start_off, run_len));
    } else {
      GVFS_ASSIGN_OR_RETURN(data, disk_fs_->read(p, disk_path_, run_start_off, run_len));
    }
    host_reads_.inc();
    host_read_bytes_.inc(data->size());
    // The run's pages, up to the data's end, become views of it.
    guest_cache_->insert_block(p, kDiskKey, pg, data);
    u64 lo = std::max(run_start_off, offset);
    u64 hi = std::min({run_start_off + data->size(), offset + len});
    if (lo < hi) out.push_back({lo - offset, hi - lo, std::move(data), lo - run_start_off});
    pg = run_end;
  }
  return blob::make_pieces(std::move(out), len);
}

Status VmMonitor::disk_write(sim::Process& p, u64 offset, blob::BlobRef data) {
  if (disk_fs_ == nullptr) return err(ErrCode::kInval, "VMM not attached");
  if (!data || data->size() == 0) return Status::ok();
  p.delay(kGuestIoCpu);
  u64 len = data->size();
  u64 first = offset / kGuestPage;
  u64 last = (offset + len - 1) / kGuestPage;
  for (u64 pg = first; pg <= last; ++pg) {
    u64 pg_start = pg * kGuestPage;
    u64 lo = std::max(pg_start, offset);
    u64 hi = std::min(pg_start + kGuestPage, offset + len);
    blob::BlobRef page_data;
    if (lo == pg_start && hi - lo == kGuestPage) {
      page_data = std::make_shared<blob::SliceBlob>(data, lo - offset, hi - lo);
    } else {
      // Partial page: read-modify-write through the cache hierarchy.
      auto cached = guest_cache_->lookup(kDiskKey, pg);
      blob::ExtentStore compose;
      compose.truncate(kGuestPage);
      if (cached) {
        compose.write_blob(0, cached->data, cached->off, cached->len);
      } else {
        GVFS_ASSIGN_OR_RETURN(blob::BlobRef base,
                              disk_read(p, pg_start, kGuestPage));
        compose.write_blob(0, base, 0, base->size());
      }
      compose.write_blob(lo - pg_start, data, lo - offset, hi - lo);
      page_data = compose.snapshot();
    }
    guest_cache_->insert(p, kDiskKey, pg, std::move(page_data), /*dirty=*/true);
  }
  return Status::ok();
}

Status VmMonitor::sync(sim::Process& p) {
  guest_cache_->flush(p);
  if (redo_) {
    GVFS_RETURN_IF_ERROR(redo_->flush(p));
  }
  return disk_fs_->flush(p);
}

}  // namespace gvfs::vm
