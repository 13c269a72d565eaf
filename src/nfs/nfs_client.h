// Kernel NFS client model implementing the FsSession "system call" surface.
// Mirrors a 2.4-era Linux client: dentry cache, attribute cache with a TTL,
// a bounded page cache fed by rsize READs, staged (bounded) dirty pages
// flushed as wsize WRITE bursts plus COMMIT on close — the exact behaviours
// whose WAN costs the GVFS proxy extensions attack.
#pragma once

#include <array>
#include <string>
#include <unordered_map>

#include "common/metrics.h"
#include "common/trace.h"
#include "nfs/nfs_types.h"
#include "rpc/rpc.h"
#include "vfs/buffer_cache.h"
#include "vfs/fs_session.h"

namespace gvfs::nfs {

struct NfsClientConfig {
  u32 rsize = 8_KiB;   // era-typical kernel default; GVFS negotiates 32 KiB
  u32 wsize = 8_KiB;
  u64 buffer_cache_bytes = 512_MiB;
  u64 dirty_limit_bytes = 16_MiB;  // staged writes before forced writeback
  SimDuration attr_cache_ttl = 30 * kSecond;
  SimDuration per_op_cpu = 40 * kMicrosecond;  // syscall + RPC client CPU
};

class NfsClient final : public vfs::FsSession {
 public:
  static constexpr u32 kPageSize = 4_KiB;  // page-cache granularity

  NfsClient(rpc::RpcChannel& channel, rpc::Credential cred, NfsClientConfig cfg = {});

  // MOUNT the export and negotiate transfer sizes via FSINFO.
  Status mount(sim::Process& p, const std::string& export_path);
  [[nodiscard]] bool mounted() const { return root_.valid(); }

  // ---- FsSession ----------------------------------------------------------
  Result<vfs::Attr> stat(sim::Process& p, const std::string& path) override;
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
  Result<std::vector<vfs::DirEntry>> list(sim::Process& p,
                                          const std::string& path) override;
  Status flush(sim::Process& p) override;

  // Close semantics: flush the file's staged writes and COMMIT (NFS
  // close-to-open consistency). No-op if nothing is dirty.
  Status close(sim::Process& p, const std::string& path);

  // Drop page/attr/dentry caches (cold experiment start, or a middleware
  // consistency invalidation).
  void drop_caches();

  // ---- Observability ------------------------------------------------------
  [[nodiscard]] u64 rpcs_sent() const { return rpcs_sent_.value(); }
  [[nodiscard]] u64 rpcs_sent(Proc proc) const;
  [[nodiscard]] u64 bytes_read_wire() const { return bytes_read_wire_.value(); }
  [[nodiscard]] u64 bytes_written_wire() const { return bytes_written_wire_.value(); }
  // Replies rejected because their xid did not match the issued call.
  [[nodiscard]] u64 xid_mismatches() const { return xid_mismatches_.value(); }
  [[nodiscard]] vfs::BufferCache& page_cache() { return pages_; }

  void register_metrics(metrics::Registry& r, const std::string& prefix) const {
    r.register_counter(prefix + "rpcs_sent", &rpcs_sent_);
    r.register_counter(prefix + "bytes_read_wire", &bytes_read_wire_);
    r.register_counter(prefix + "bytes_written_wire", &bytes_written_wire_);
    r.register_counter(prefix + "xid_mismatches", &xid_mismatches_);
  }

  // Open an xid-keyed trace span around every RPC this client issues.
  void set_tracer(trace::RpcTracer* t) { tracer_ = t; }

 private:
  struct CachedAttr {
    vfs::Attr attr;
    SimTime expires = 0;
  };

  // RPC plumbing.
  Result<rpc::MessagePtr> call_(sim::Process& p, Proc proc, rpc::MessagePtr args);
  template <typename Res>
  Result<std::shared_ptr<const Res>> call_as_(sim::Process& p, Proc proc,
                                              rpc::MessagePtr args);

  // Path resolution through the dentry cache (LOOKUP RPCs on miss).
  Result<Fh> resolve_(sim::Process& p, const std::string& path);
  Result<Fh> lookup_(sim::Process& p, const Fh& dir, const std::string& name);
  Result<vfs::Attr> getattr_(sim::Process& p, const Fh& fh);
  void cache_attr_(const Fh& fh, const vfs::Attr& a, sim::Process& p);
  void invalidate_path_(const std::string& path);

  // Fetch the rsize block containing `page` into the page cache with one
  // synchronous READ (no read-ahead: the VMM's blocking read pattern the
  // paper measured).
  Status fill_block_(sim::Process& p, const Fh& fh, u64 file_size, u64 page);
  // Flush dirty pages of one file as wsize WRITE runs + COMMIT.
  Status flush_file_(sim::Process& p, const Fh& fh);

  rpc::RpcChannel& channel_;
  rpc::Credential cred_;
  NfsClientConfig cfg_;
  Fh root_;
  vfs::BufferCache pages_;
  std::unordered_map<u64, CachedAttr> attr_cache_;           // key: fh.key()
  std::unordered_map<std::string, Fh> dentry_cache_;          // "dirkey/name"
  std::unordered_map<std::string, Fh> path_cache_;            // full path -> fh
  std::unordered_map<u64, u64> file_sizes_;  // fh.key -> max known size (incl. staged)
  std::unordered_map<u64, Fh> key_to_fh_;
  u32 next_xid_ = 1;
  metrics::Counter rpcs_sent_;
  std::array<u64, kNfsProcs.size()> proc_counts_{};  // calls per procedure number
  metrics::Counter bytes_read_wire_;
  metrics::Counter bytes_written_wire_;
  metrics::Counter xid_mismatches_;
  trace::RpcTracer* tracer_ = nullptr;
};

}  // namespace gvfs::nfs
