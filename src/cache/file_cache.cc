#include "cache/file_cache.h"

#include <algorithm>

namespace gvfs::cache {

const blob::BlobRef& FileCache::content_(Entry& e) {
  if (!e.snapshot) e.snapshot = e.store.snapshot();
  return e.snapshot;
}

Status FileCache::evict_lru_(sim::Process& p) {
  if (lru_.empty()) return err(ErrCode::kNoSpc, "file cache thrashing");
  const u64 key = lru_.back().key;
  GVFS_RETURN_IF_ERROR(write_back(p, key));
  // The upload yielded: find the victim again. One rewritten meanwhile stays
  // (dirty), and put's loop picks again.
  auto it = map_.find(key);
  if (it == map_.end() || it->second->dirty) return Status::ok();
  evictions_.inc();
  resident_bytes_.sub(it->second->store.size());
  lru_.erase(it->second);
  map_.erase(it);
  return Status::ok();
}

Status FileCache::put(sim::Process& p, u64 file_key, blob::BlobRef content,
                      bool dirty) {
  u64 size = content ? content->size() : 0;
  auto it = map_.find(file_key);
  if (it != map_.end()) {
    resident_bytes_.sub(it->second->store.size());
    lru_.erase(it->second);
    map_.erase(it);
  }
  while (resident_bytes_.value() + size > cfg_.capacity_bytes && !lru_.empty()) {
    GVFS_RETURN_IF_ERROR(evict_lru_(p));
  }
  // Lay the file down on the cache disk sequentially.
  disk_.access(p, std::max<u64>(size, 4_KiB), sim::Locality::kSequential);
  lru_.push_front(Entry{file_key, blob::ExtentStore(content), std::move(content), dirty, 0});
  map_[file_key] = lru_.begin();
  resident_bytes_.add(size);
  return Status::ok();
}

std::optional<blob::BlobRef> FileCache::read(sim::Process& p, u64 file_key,
                                             u64 offset, u64 len) {
  auto it = map_.find(file_key);
  if (it == map_.end()) {
    misses_.inc();
    return std::nullopt;
  }
  hits_.inc();
  lru_.splice(lru_.begin(), lru_, it->second);
  Entry& e = *it->second;
  u64 size = e.store.size();
  if (offset >= size || len == 0) return blob::BlobRef(blob::make_zero(0));
  len = std::min<u64>(len, size - offset);
  // Copy the content handle before the disk yield: a concurrent invalidate
  // erases the entry and would leave `e` dangling.
  blob::BlobRef content = content_(e);
  bool sequential = offset == e.last_read_end;
  disk_.access(p, len,
               sequential ? sim::Locality::kSequential : sim::Locality::kRandom);
  it = map_.find(file_key);
  if (it != map_.end()) it->second->last_read_end = offset + len;
  return blob::BlobRef(std::make_shared<blob::SliceBlob>(content, offset, len));
}

Status FileCache::write(sim::Process& p, u64 file_key, u64 offset,
                        const blob::BlobRef& data) {
  auto it = map_.find(file_key);
  if (it == map_.end()) return err(ErrCode::kNoEnt, "file not cached");
  Entry& e = *it->second;
  u64 n = data ? data->size() : 0;
  u64 old_size = e.store.size();
  if (n > 0) {
    e.store.write_blob(offset, data, 0, n);
    e.snapshot = nullptr;
  }
  e.dirty = true;
  resident_bytes_.add(e.store.size() - old_size);
  disk_.access(p, std::max<u64>(n, 4_KiB), sim::Locality::kSequential);
  // The disk write yielded: a concurrent invalidate may have dropped the
  // entry, so re-find before the LRU touch.
  it = map_.find(file_key);
  if (it != map_.end()) lru_.splice(lru_.begin(), lru_, it->second);
  return Status::ok();
}

std::optional<u64> FileCache::cached_size(u64 file_key) const {
  auto it = map_.find(file_key);
  if (it == map_.end()) return std::nullopt;
  return it->second->store.size();
}

Status FileCache::write_back(sim::Process& p, u64 file_key) {
  auto it = map_.find(file_key);
  if (it == map_.end() || !it->second->dirty) return Status::ok();
  if (upload_) {
    // Copy the content handle before the yields (re-read from the cache
    // disk, then upload): the entry may be rewritten or invalidated meanwhile.
    blob::BlobRef content = content_(*it->second);
    disk_.access(p, content ? content->size() : 4_KiB, sim::Locality::kSequential);
    GVFS_RETURN_IF_ERROR(upload_(p, file_key, content));
    // A write during the upload nulled the snapshot: newer bytes wait for
    // the next write-back.
    it = map_.find(file_key);
    if (it == map_.end() || it->second->snapshot != content) return Status::ok();
  }
  it->second->dirty = false;
  return Status::ok();
}

Status FileCache::write_back_all(sim::Process& p) {
  // Snapshot the dirty keys first: each write-back yields, and a concurrent
  // invalidate would unlink the list node a walk of lru_ is parked on.
  std::vector<u64> dirty_keys;
  for (const Entry& e : lru_) {
    if (e.dirty) dirty_keys.push_back(e.key);
  }
  for (u64 key : dirty_keys) GVFS_RETURN_IF_ERROR(write_back(p, key));
  return Status::ok();
}

void FileCache::invalidate(u64 file_key) {
  auto it = map_.find(file_key);
  if (it == map_.end()) return;
  resident_bytes_.sub(it->second->store.size());
  lru_.erase(it->second);
  map_.erase(it);
}

void FileCache::invalidate_all() {
  lru_.clear();
  map_.clear();
  resident_bytes_.set(0);
}

}  // namespace gvfs::cache
