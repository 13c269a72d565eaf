// FsSession over a local disk: MemFs (logical state) + DiskModel (timing) +
// BufferCache (OS page cache). This is the paper's "Local" scenario — the
// reference configuration every other setup is compared against — and also
// the storage layer under NFS servers.
#pragma once

#include <memory>
#include <unordered_map>

#include "sim/resources.h"
#include "vfs/buffer_cache.h"
#include "vfs/fs_session.h"
#include "vfs/memfs.h"

namespace gvfs::vfs {

struct LocalSessionConfig {
  u64 buffer_cache_bytes = 640_MiB;  // pagecache share of a 1 GB machine
};

class LocalFsSession final : public FsSession {
 public:
  // `fs` and `disk` are owned by the caller (the scenario); several sessions
  // may share one disk (contention) but each has its own page cache.
  LocalFsSession(MemFs& fs, sim::DiskModel& disk, LocalSessionConfig cfg = {});

  Result<Attr> stat(sim::Process& p, const std::string& path) override;
  Result<blob::BlobRef> read(sim::Process& p, const std::string& path, u64 offset,
                             u64 len) override;
  Status write(sim::Process& p, const std::string& path, u64 offset,
               blob::BlobRef data) override;
  Status create(sim::Process& p, const std::string& path) override;
  Status mkdirs(sim::Process& p, const std::string& path) override;
  Status remove(sim::Process& p, const std::string& path) override;
  Status truncate(sim::Process& p, const std::string& path, u64 size) override;
  Status symlink(sim::Process& p, const std::string& link_path,
                 const std::string& target) override;
  Status hard_link(sim::Process& p, const std::string& existing,
                   const std::string& link_path) override;
  Result<std::vector<DirEntry>> list(sim::Process& p, const std::string& path) override;
  Status flush(sim::Process& p) override;

  [[nodiscard]] BufferCache& buffer_cache() { return cache_; }
  [[nodiscard]] MemFs& fs() { return fs_; }

  // Drop the page cache (cold-start an experiment).
  void drop_caches() { cache_.drop_all(); }

 private:
  // Fetch one page through the cache, charging disk on miss (with
  // readahead). Returns page data clamped at EOF.
  blob::BlobRef fetch_page_(sim::Process& p, FileId id, u64 file_size, u64 page);

  MemFs& fs_;
  sim::DiskModel& disk_;
  BufferCache cache_;
  std::unordered_map<FileId, u64> last_page_;  // sequentiality detection
};

}  // namespace gvfs::vfs
