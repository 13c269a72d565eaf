#include "vm/vm_monitor.h"

#include <algorithm>

#include "blob/extent_store.h"

namespace gvfs::vm {

VmMonitor::VmMonitor(VmmConfig cfg) : cfg_(cfg) {
  guest_cache_ =
      std::make_unique<vfs::BufferCache>(cfg.guest_cache_bytes, cfg.guest_page);
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
    u64 n = std::min<u64>(cfg_.io_chunk, vmss.size - off);
    GVFS_ASSIGN_OR_RETURN(blob::BlobRef chunk, state_fs_->read(p, vmss_path_, off, n));
    if (chunk->size() == 0) break;
    vmss_bytes_read_.inc(chunk->size());
    p.delay(transfer_time(chunk->size(), cfg_.mem_load_bps));
    off += chunk->size();
  }
  // Restore device state / attach the disk descriptor.
  GVFS_RETURN_IF_ERROR(disk_fs_->stat(p, disk_path_).status());
  p.delay(cfg_.device_init);
  resumed_ = true;
  return Status::ok();
}

Status VmMonitor::suspend(sim::Process& p, blob::BlobRef new_memory_state) {
  if (state_fs_ == nullptr) return err(ErrCode::kInval, "VMM not attached");
  GVFS_RETURN_IF_ERROR(sync(p));
  u64 size = new_memory_state ? new_memory_state->size() : 0;
  u64 off = 0;
  while (off < size) {
    u64 n = std::min<u64>(cfg_.io_chunk, size - off);
    auto slice = std::make_shared<blob::SliceBlob>(new_memory_state, off, n);
    p.delay(transfer_time(n, cfg_.mem_save_bps));
    GVFS_RETURN_IF_ERROR(state_fs_->write(p, vmss_path_, off, slice));
    off += n;
  }
  GVFS_RETURN_IF_ERROR(state_fs_->flush(p));
  resumed_ = false;
  return Status::ok();
}

void VmMonitor::writeback_page_(sim::Process& p, u64 page, const blob::BlobRef& data) {
  if (!data || data->size() == 0) return;
  u64 offset = page * cfg_.guest_page;
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
  p.delay(cfg_.guest_io_cpu);
  std::vector<blob::Piece> out;
  u64 first = offset / cfg_.guest_page;
  u64 last = (offset + len - 1) / cfg_.guest_page;

  // Walk pages, coalescing consecutive guest-cache misses into one host read.
  u64 pg = first;
  while (pg <= last) {
    auto cached = guest_cache_->lookup(kDiskKey, pg);
    if (cached) {
      u64 pg_start = pg * cfg_.guest_page;
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
    bool via_redo = redo_ && redo_->covers(pg * cfg_.guest_page);
    u64 run_end = pg + 1;
    while (run_end <= last && !guest_cache_->contains(kDiskKey, run_end)) {
      bool r = redo_ && redo_->covers(run_end * cfg_.guest_page);
      if (r != via_redo) break;
      ++run_end;
    }
    u64 run_start_off = pg * cfg_.guest_page;
    u64 run_len = (run_end - pg) * cfg_.guest_page;
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
  p.delay(cfg_.guest_io_cpu);
  u64 len = data->size();
  u64 first = offset / cfg_.guest_page;
  u64 last = (offset + len - 1) / cfg_.guest_page;
  for (u64 pg = first; pg <= last; ++pg) {
    u64 pg_start = pg * cfg_.guest_page;
    u64 lo = std::max(pg_start, offset);
    u64 hi = std::min(pg_start + cfg_.guest_page, offset + len);
    blob::BlobRef page_data;
    if (lo == pg_start && hi - lo == cfg_.guest_page) {
      page_data = std::make_shared<blob::SliceBlob>(data, lo - offset, hi - lo);
    } else {
      // Partial page: read-modify-write through the cache hierarchy.
      auto cached = guest_cache_->lookup(kDiskKey, pg);
      blob::ExtentStore compose;
      compose.truncate(cfg_.guest_page);
      if (cached) {
        compose.write_blob(0, cached->data, cached->off, cached->len);
      } else {
        GVFS_ASSIGN_OR_RETURN(blob::BlobRef base,
                              disk_read(p, pg_start, cfg_.guest_page));
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
