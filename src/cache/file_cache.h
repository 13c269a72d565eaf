// Whole-file proxy cache (§3.2.2): the landing zone of the meta-data-driven
// "compress → remote copy → uncompress → read locally" channel. Together
// with the block cache it forms the paper's heterogeneous disk caching
// scheme. Entries are whole files on the proxy's cache disk; requests to a
// cached file are served locally at disk speed.
#pragma once

#include <functional>
#include <list>
#include <optional>
#include <unordered_map>

#include "blob/blob.h"
#include "blob/extent_store.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/resources.h"

namespace gvfs::cache {

struct FileCacheConfig {
  u64 capacity_bytes = 8_GiB;
};

class FileCache {
 public:
  // Upload callback for dirty eviction / write-back (compress + SCP push).
  using UploadFn = std::function<Status(sim::Process& p, u64 file_key,
                                        const blob::BlobRef& content)>;

  FileCache(sim::DiskModel& disk, FileCacheConfig cfg = {})
      : disk_(disk), cfg_(cfg) {}

  void set_upload(UploadFn fn) { upload_ = std::move(fn); }

  [[nodiscard]] bool contains(u64 file_key) const {
    return map_.count(file_key) != 0;
  }
  // Holds bytes not yet uploaded.
  [[nodiscard]] bool dirty(u64 file_key) const {
    auto it = map_.find(file_key);
    return it != map_.end() && it->second->dirty;
  }

  // Install a whole file (charges a sequential cache-disk write of its
  // size — the "uncompress into the file cache" step).
  Status put(sim::Process& p, u64 file_key, blob::BlobRef content, bool dirty = false);

  // Serve a byte range from the cached copy (cache-disk read). nullopt on
  // miss.
  std::optional<blob::BlobRef> read(sim::Process& p, u64 file_key, u64 offset, u64 len);

  // Overwrite a byte range of the cached copy, marking it dirty.
  Status write(sim::Process& p, u64 file_key, u64 offset, const blob::BlobRef& data);

  [[nodiscard]] std::optional<u64> cached_size(u64 file_key) const;

  // Upload one dirty file (cache-disk re-read, then the upload callback).
  // The file stays dirty if a write lands during the upload. Every upload,
  // eviction's included, goes through here.
  Status write_back(sim::Process& p, u64 file_key);
  // write_back() over every dirty file, most recent first.
  Status write_back_all(sim::Process& p);
  void invalidate(u64 file_key);
  void invalidate_all();

  [[nodiscard]] u64 hits() const { return hits_.value(); }
  [[nodiscard]] u64 misses() const { return misses_.value(); }
  [[nodiscard]] u64 evictions() const { return evictions_.value(); }
  [[nodiscard]] u64 resident_bytes() const { return resident_bytes_.value(); }
  [[nodiscard]] u64 files_cached() const { return map_.size(); }

  void register_metrics(metrics::Registry& r, const std::string& prefix) const {
    r.register_counter(prefix + "hits", &hits_);
    r.register_counter(prefix + "misses", &misses_);
    r.register_counter(prefix + "evictions", &evictions_);
    r.register_gauge(prefix + "resident_bytes", &resident_bytes_);
  }

 private:
  struct Entry {
    u64 key = 0;
    // A write splices into `store`; `snapshot` is the store as one
    // immutable blob, taken again only when the file is next read or
    // uploaded (null in between). Building a snapshot per write would
    // nest each one inside the next, as deep as the writes are many. An
    // upload marks the file clean only if `snapshot` is still the blob it
    // sent.
    blob::ExtentStore store;
    blob::BlobRef snapshot;
    bool dirty = false;
    u64 last_read_end = 0;  // sequential-read detection
  };
  using Lru = std::list<Entry>;

  Status evict_lru_(sim::Process& p);
  static const blob::BlobRef& content_(Entry& e);

  sim::DiskModel& disk_;
  FileCacheConfig cfg_;
  Lru lru_;  // front = most recent
  std::unordered_map<u64, Lru::iterator> map_;
  UploadFn upload_;
  metrics::Gauge resident_bytes_;
  metrics::Counter hits_;
  metrics::Counter misses_;
  metrics::Counter evictions_;
};

}  // namespace gvfs::cache
