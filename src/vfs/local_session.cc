#include "vfs/local_session.h"

#include <algorithm>

#include "common/strings.h"

namespace gvfs::vfs {

constexpr u32 kPageSize = 4_KiB;
constexpr u64 kReadaheadBytes = 64_KiB;  // cluster size on miss
constexpr SimDuration kMetaOpCost = 50 * kMicrosecond;

LocalFsSession::LocalFsSession(MemFs& fs, sim::DiskModel& disk, LocalSessionConfig cfg)
    : fs_(fs), disk_(disk), cache_(cfg.buffer_cache_bytes, kPageSize) {
  cache_.set_writeback([this](sim::Process& p, u64 /*file*/, u64 /*page*/,
                              const blob::BlobRef& data) {
    // Dirty page eviction: one mostly-sequential disk write (the elevator
    // batches neighbouring pages in practice; seq_overhead models that).
    disk_.access(p, data ? data->size() : kPageSize, sim::Locality::kSequential);
  });
}

void LocalFsSession::fetch_page_(sim::Process& p, FileId id, u64 file_size, u64 page) {
  if (cache_.lookup(id, page)) return;

  // Miss: read a readahead cluster from disk and populate all its pages.
  u64 pages_per_cluster = std::max<u64>(1, kReadaheadBytes / kPageSize);
  u64 cluster_first = page - (page % pages_per_cluster);
  u64 start = cluster_first * kPageSize;
  u64 bytes = std::min<u64>(kReadaheadBytes, file_size > start ? file_size - start : 0);
  if (bytes == 0) bytes = kPageSize;  // EOF page: still one disk op

  auto it = last_page_.find(id);
  sim::Locality loc = (it != last_page_.end() && cluster_first <= it->second + pages_per_cluster &&
                       cluster_first + pages_per_cluster >= it->second)
                          ? sim::Locality::kSequential
                          : sim::Locality::kRandom;
  last_page_[id] = cluster_first;
  disk_.access(p, bytes, loc);

  auto r = fs_.read_ref(id, start, bytes);
  blob::BlobRef cluster = r.is_ok() ? *r : blob::make_zero(bytes);
  if (cluster->size() == 0) {
    // Past EOF: the cluster's first page, empty.
    cache_.insert(p, id, cluster_first, blob::zero_ref(0), /*dirty=*/false);
  } else {
    cache_.insert_block(p, id, cluster_first, std::move(cluster));
  }
}

Result<Attr> LocalFsSession::stat(sim::Process& p, const std::string& path) {
  (void)p;  // metadata in dentry/inode caches: negligible time locally
  GVFS_ASSIGN_OR_RETURN(FileId id, fs_.resolve(path));
  return fs_.getattr(id);
}

Result<blob::BlobRef> LocalFsSession::read(sim::Process& p, const std::string& path,
                                           u64 offset, u64 len) {
  GVFS_ASSIGN_OR_RETURN(FileId id, fs_.resolve(path));
  GVFS_ASSIGN_OR_RETURN(Attr a, fs_.getattr(id));
  if (a.type != FileType::kRegular) return err(ErrCode::kIsDir, path);
  if (offset >= a.size) return blob::BlobRef(blob::make_zero(0));
  len = std::min<u64>(len, a.size - offset);

  // Walk pages through the cache to charge time, then return the
  // authoritative bytes as one contiguous lazy slice.
  u64 first = offset / kPageSize;
  u64 last = (offset + len - 1) / kPageSize;
  for (u64 pg = first; pg <= last; ++pg) fetch_page_(p, id, a.size, pg);
  return fs_.read_ref(id, offset, len);
}

Status LocalFsSession::write(sim::Process& p, const std::string& path, u64 offset,
                             blob::BlobRef data) {
  GVFS_ASSIGN_OR_RETURN(FileId id, fs_.resolve(path));
  if (!data || data->size() == 0) return Status::ok();
  u64 len = data->size();
  GVFS_RETURN_IF_ERROR(fs_.write_blob(id, offset, data, 0, len));
  // Stage dirty pages in the buffer cache; disk time charged at flush or
  // eviction (local FS write-behind).
  u64 first = offset / kPageSize;
  u64 last = (offset + len - 1) / kPageSize;
  GVFS_ASSIGN_OR_RETURN(Attr a, fs_.getattr(id));
  for (u64 pg = first; pg <= last; ++pg) {
    u64 pg_off = pg * kPageSize;
    u64 pg_len = std::min<u64>(kPageSize, a.size - pg_off);
    auto r = fs_.read_ref(id, pg_off, pg_len);
    cache_.insert(p, id, pg, r.is_ok() ? *r : blob::make_zero(0), /*dirty=*/true);
  }
  return Status::ok();
}

Status LocalFsSession::create(sim::Process& p, const std::string& path) {
  p.delay(kMetaOpCost);
  GVFS_ASSIGN_OR_RETURN(FileId dir, fs_.resolve(path_dirname(path)));
  GVFS_ASSIGN_OR_RETURN(FileId id, fs_.create(dir, path_basename(path), 0644, 0, 0));
  (void)id;
  return Status::ok();
}

Status LocalFsSession::mkdirs(sim::Process& p, const std::string& path) {
  p.delay(kMetaOpCost);
  return fs_.mkdirs(path);
}

Status LocalFsSession::remove(sim::Process& p, const std::string& path) {
  p.delay(kMetaOpCost);
  GVFS_ASSIGN_OR_RETURN(FileId dir, fs_.resolve(path_dirname(path)));
  GVFS_ASSIGN_OR_RETURN(FileId id, fs_.lookup(dir, path_basename(path)));
  cache_.invalidate_file(p, id);
  return fs_.remove(dir, path_basename(path));
}

Status LocalFsSession::truncate(sim::Process& p, const std::string& path, u64 size) {
  p.delay(kMetaOpCost);
  GVFS_ASSIGN_OR_RETURN(FileId id, fs_.resolve(path));
  SetAttr sa;
  sa.set_size = true;
  sa.size = size;
  return fs_.setattr(id, sa);
}

Status LocalFsSession::symlink(sim::Process& p, const std::string& link_path,
                               const std::string& target) {
  p.delay(kMetaOpCost);
  GVFS_ASSIGN_OR_RETURN(FileId dir, fs_.resolve(path_dirname(link_path)));
  GVFS_ASSIGN_OR_RETURN(FileId id, fs_.symlink(dir, path_basename(link_path), target));
  (void)id;
  return Status::ok();
}

Status LocalFsSession::hard_link(sim::Process& p, const std::string& existing,
                                 const std::string& link_path) {
  p.delay(kMetaOpCost);
  GVFS_ASSIGN_OR_RETURN(FileId file, fs_.resolve(existing));
  GVFS_ASSIGN_OR_RETURN(FileId dir, fs_.resolve(path_dirname(link_path)));
  return fs_.link(file, dir, path_basename(link_path));
}

Result<std::vector<DirEntry>> LocalFsSession::list(sim::Process& p,
                                                   const std::string& path) {
  p.delay(kMetaOpCost);
  GVFS_ASSIGN_OR_RETURN(FileId id, fs_.resolve(path));
  return fs_.readdir(id);
}

Status LocalFsSession::flush(sim::Process& p) {
  cache_.flush(p);
  return Status::ok();
}

}  // namespace gvfs::vfs
