// Kernel NFS server model: services NFSv3 and MOUNT RPCs against a MemFs
// export, charging CPU per operation and disk time through a server-side
// page cache. Concurrency is bounded by an nfsd thread pool (semaphore), so
// eight parallel cloning clients queue here exactly as they would on a real
// image server.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "nfs/nfs_types.h"
#include "rpc/rpc.h"
#include "sim/resources.h"
#include "vfs/buffer_cache.h"
#include "vfs/memfs.h"

namespace gvfs::nfs {

struct NfsServerConfig {
  u32 fsid = 1;
  u32 max_io = kMaxBlockSize;                  // rtmax/wtmax advertised
  SimDuration per_op_cpu = 80 * kMicrosecond;  // service CPU per RPC
  u64 buffer_cache_bytes = 700_MiB;            // page cache share of RAM
  int nfsd_threads = 8;
  // Duplicate request cache: retransmitted non-idempotent ops (WRITE,
  // CREATE, REMOVE, ...) get their cached reply instead of re-executing
  // (RFC 1813 §4; Juszczak '89). 0 disables. Lost with server volatile
  // state on a crash (clear_drc()).
  u32 drc_entries = 256;
  // Width of the DRC hash key in bits (64 = full hash). Entries store the
  // complete (machine, uid, prog, proc, xid) tuple and verify it on every
  // hit, so a narrower key only raises the collision rate — tests shrink it
  // to force collisions deterministically.
  u32 drc_key_bits = 64;
  // Test seam: when true, clear_drc() preserves the cache across a simulated
  // reboot, modeling a server that journals its DRC to stable storage
  // (Juszczak '89 §4 discusses exactly this option). Default false — the DRC
  // is volatile state and a crash empties it (DESIGN.md §5.7 documents the
  // contract). Cluster tests flip it to isolate which retransmit replays are
  // due to DRC survival vs. plain idempotency.
  bool drc_survives = false;
  // ---- GVFS lease extension (DESIGN.md §5.10) ------------------------------
  // Serve LEASE_ACQUIRE / LEASE_RELEASE and issue recall callbacks on
  // conflict. Off by default: lease procs answer kNotSupported, no lease
  // state, no callback traffic — byte-identical to the pre-lease server.
  bool enable_leases = false;
  // Grant lifetime in virtual time. A holder that cannot be recalled (e.g.
  // partitioned away) blocks conflicting grants only until its lease lapses.
  SimDuration lease_duration = 30 * kSecond;
};

class NfsServer final : public rpc::RpcHandler {
 public:
  NfsServer(sim::SimKernel& kernel, vfs::MemFs& fs, sim::DiskModel& disk,
            NfsServerConfig cfg = {});

  // Register an exported directory (created if missing). MOUNT requests for
  // other paths are rejected.
  Status add_export(const std::string& path);

  // Optional policy hook: return false to reject a credential (AUTH_ERROR).
  void set_authorizer(std::function<bool(const rpc::Credential&)> fn) {
    authorizer_ = std::move(fn);
  }

  rpc::RpcReply handle(sim::Process& p, const rpc::RpcCall& call) override;

  [[nodiscard]] Fh root_fh(const std::string& export_path);
  [[nodiscard]] Fh fh_of(vfs::FileId id) const { return Fh{cfg_.fsid, id}; }
  [[nodiscard]] vfs::MemFs& fs() { return fs_; }
  [[nodiscard]] vfs::BufferCache& page_cache() { return page_cache_; }

  // NFS calls per procedure (experiment observability). total_calls()
  // counts every call, MOUNT included.
  [[nodiscard]] u64 calls(Proc proc) const {
    return static_cast<u32>(proc) < proc_calls_.size()
               ? proc_calls_[static_cast<u32>(proc)]
               : 0;
  }
  [[nodiscard]] u64 total_calls() const { return total_calls_.value(); }

  // Drop the server page cache (cold experiment start).
  void drop_caches() { page_cache_.drop_all(); }

  // Duplicate-request-cache observability / crash simulation.
  [[nodiscard]] u64 drc_hits() const { return drc_hits_.value(); }
  [[nodiscard]] u64 drc_inserts() const { return drc_inserts_.value(); }
  // Hash-key collisions between distinct live transactions (detected by the
  // full-tuple verification; the colliding call executes normally).
  [[nodiscard]] u64 drc_collisions() const { return drc_collisions_.value(); }
  // Reboot-time wipes actually performed / skipped via the drc_survives seam.
  [[nodiscard]] u64 drc_clears() const { return drc_clears_.value(); }
  [[nodiscard]] u64 drc_retained() const { return drc_retained_.value(); }
  [[nodiscard]] std::size_t drc_size() const { return drc_.size(); }
  void clear_drc() {
    if (cfg_.drc_survives) {
      drc_retained_.inc();
      return;
    }
    drc_clears_.inc();
    drc_.clear();
    drc_order_.clear();
  }

  // ---- lease table (GVFS extension, DESIGN.md §5.10) -----------------------
  // Reverse callback channel for a lease-aware proxy: recalls to `client_id`
  // travel it (same decorated fault/retry stack as forward traffic, in
  // reverse). The channel must outlive every recall issued on it.
  void set_lease_callback(u64 client_id, rpc::RpcChannel* chan) {
    lease_callbacks_[client_id] = chan;
  }
  // Leases are volatile server state: a crash empties the table (holders
  // must re-acquire — the proxy's fencing path), like clear_drc() for the DRC.
  void clear_leases() {
    if (leases_.empty()) return;
    lease_clears_.inc();
    leases_.clear();  // gvfs-lint: allow(lease-table-mutation) crash wipe is a sanctioned site
  }
  [[nodiscard]] u64 leases_granted() const { return leases_granted_.value(); }
  [[nodiscard]] u64 leases_denied() const { return leases_denied_.value(); }
  [[nodiscard]] u64 lease_recalls() const { return lease_recalls_.value(); }
  [[nodiscard]] u64 lease_recall_failures() const {
    return lease_recall_failures_.value();
  }
  [[nodiscard]] u64 lease_expirations() const { return lease_expirations_.value(); }
  [[nodiscard]] u64 lease_releases() const { return lease_releases_.value(); }
  [[nodiscard]] std::size_t lease_table_size() const { return leases_.size(); }
  // Grant-order log: the linearization order the multi-writer property sweep
  // checks against (per-file sequence of grants, in virtual-time order).
  struct LeaseGrant {
    u64 key = 0;
    u64 client = 0;
    LeaseMode mode = LeaseMode::kRead;
    SimTime at = 0;
  };
  [[nodiscard]] const std::vector<LeaseGrant>& lease_grants() const {
    return lease_grants_;
  }

  // DRC capacity actually in effect (the testbed scales it to client count).
  [[nodiscard]] u32 drc_capacity() const { return cfg_.drc_entries; }

  // RFC 1813 §3.3.7: the write verifier must change on every server reboot
  // so clients detect that uncommitted UNSTABLE writes were lost and re-send
  // them. Called from the crash-restart callback alongside clear_drc().
  void roll_write_verifier() {
    write_verifier_ = write_verifier_ * 0x9e3779b97f4a7c15ULL + 1;
  }

  void register_metrics(metrics::Registry& r, const std::string& prefix) const {
    r.register_counter(prefix + "total_calls", &total_calls_);
    r.register_counter(prefix + "drc_hits", &drc_hits_);
    r.register_counter(prefix + "drc_inserts", &drc_inserts_);
    r.register_counter(prefix + "drc_collisions", &drc_collisions_);
    r.register_counter(prefix + "drc_clears", &drc_clears_);
    r.register_counter(prefix + "drc_retained", &drc_retained_);
    r.register_histogram(prefix + "service_ms", &service_ms_);
    if (cfg_.enable_leases) {
      r.register_counter(prefix + "leases_granted", &leases_granted_);
      r.register_counter(prefix + "leases_denied", &leases_denied_);
      r.register_counter(prefix + "lease_recalls", &lease_recalls_);
      r.register_counter(prefix + "lease_recall_failures", &lease_recall_failures_);
      r.register_counter(prefix + "lease_expirations", &lease_expirations_);
      r.register_counter(prefix + "lease_releases", &lease_releases_);
      r.register_counter(prefix + "lease_clears", &lease_clears_);
    }
  }

  // Annotate DRC outcomes onto the caller's open trace span.
  void set_tracer(trace::RpcTracer* t) { tracer_ = t; }

 private:
  // One cached reply of the duplicate request cache. The map key is a hash;
  // the full request identity is kept so a hash collision can never replay
  // the wrong client's reply (it is detected and treated as a miss instead).
  // Both the transport status and the (possibly null) result are cached:
  // RFC 1813 §4 requires error replies to non-idempotent procedures to be
  // replayed too, not re-executed against changed state.
  struct DrcEntry {
    std::string machine;
    u32 uid = 0;
    u32 prog = 0;
    u32 proc = 0;
    u32 xid = 0;
    Status status;
    rpc::MessagePtr result;
  };

  rpc::RpcReply handle_nfs_(sim::Process& p, const rpc::RpcCall& call);
  rpc::RpcReply dispatch_nfs_(sim::Process& p, const rpc::RpcCall& call);
  rpc::RpcReply dispatch_mount_(sim::Process& p, const rpc::RpcCall& call);

  // Duplicate request cache internals.
  [[nodiscard]] u64 drc_key_(const rpc::RpcCall& call) const;
  static bool drc_matches_(const DrcEntry& e, const rpc::RpcCall& call);

  // The handler of each NFS procedure, indexed by procedure number like
  // kNfsProcs. serve_<Do> downcasts the call's arguments to the type `Do`
  // takes; a handler taking VoidMsg ignores them.
  using Handler = rpc::MessagePtr (NfsServer::*)(sim::Process&, const rpc::RpcCall&);
  static const std::array<Handler, kNfsProcs.size()> kHandlers_;
  template <auto Do>
  rpc::MessagePtr serve_(sim::Process& p, const rpc::RpcCall& call);

  using Cred = rpc::Credential;
  rpc::MessagePtr do_null_(sim::Process&, const VoidMsg&, const Cred&);
  rpc::MessagePtr do_getattr_(sim::Process&, const GetattrArgs& a, const Cred&);
  rpc::MessagePtr do_setattr_(sim::Process& p, const SetattrArgs& a, const Cred&);
  rpc::MessagePtr do_lookup_(sim::Process&, const LookupArgs& a, const Cred&);
  rpc::MessagePtr do_access_(sim::Process&, const AccessArgs& a, const Cred&);
  rpc::MessagePtr do_readlink_(sim::Process&, const ReadlinkArgs& a, const Cred&);
  rpc::MessagePtr do_read_(sim::Process& p, const ReadArgs& a, const Cred&);
  rpc::MessagePtr do_write_(sim::Process& p, const WriteArgs& a, const Cred&);
  rpc::MessagePtr do_create_(sim::Process&, const CreateArgs& a, const Cred& cred);
  rpc::MessagePtr do_mkdir_(sim::Process&, const MkdirArgs& a, const Cred& cred);
  rpc::MessagePtr do_symlink_(sim::Process&, const SymlinkArgs& a, const Cred&);
  rpc::MessagePtr do_remove_(sim::Process&, const RemoveArgs& a, const Cred&);
  rpc::MessagePtr do_rmdir_(sim::Process&, const RemoveArgs& a, const Cred&);
  rpc::MessagePtr do_rename_(sim::Process&, const RenameArgs& a, const Cred&);
  rpc::MessagePtr do_link_(sim::Process&, const LinkArgs& a, const Cred&);
  rpc::MessagePtr do_readdir_(sim::Process&, const ReaddirArgs& a, const Cred&);
  rpc::MessagePtr do_readdirplus_(sim::Process&, const ReaddirplusArgs& a, const Cred&);
  rpc::MessagePtr do_pathconf_(sim::Process&, const GetattrArgs& a, const Cred&);
  rpc::MessagePtr do_fsstat_(sim::Process&, const VoidMsg&, const Cred&);
  rpc::MessagePtr do_fsinfo_(sim::Process&, const VoidMsg&, const Cred&);
  rpc::MessagePtr do_commit_(sim::Process& p, const CommitArgs& a, const Cred&);
  rpc::MessagePtr do_lease_acquire_(sim::Process& p, const LeaseArgs& a, const Cred&);
  rpc::MessagePtr do_lease_release_(sim::Process&, const LeaseReleaseArgs& a, const Cred&);

  // ---- sanctioned lease-table mutation helpers -----------------------------
  // Every mutation of leases_ goes through these (plus clear_leases()); the
  // gvfs_lint lease-table-mutation rule flags any other site, because the
  // recall fiber and nfsd fibers interleave and ad-hoc mutation is how grant
  // order diverges from the log.
  void lease_add_holder_(const Fh& fh, u64 client, LeaseMode mode,
                         SimTime expiry);
  bool lease_remove_holder_(u64 key, u64 client);
  void lease_expire_holders_(u64 key, SimTime now);
  // Fire-and-forget recall fiber against `client`'s callback channel; on a
  // successful recall reply the holder is removed, on timeout it is left to
  // lapse at its expiry.
  void spawn_recall_(const Fh& fh, u64 client, LeaseMode contender);

  PostOpAttr post_attr_(vfs::FileId id);
  // Timed page-cache read of [offset, offset+len) from file `id`.
  void charge_read_(sim::Process& p, vfs::FileId id, u64 file_size, u64 offset,
                    u64 len);
  // Flush dirty byte accounting for a file to disk.
  void flush_dirty_(sim::Process& p, vfs::FileId id);

  sim::SimKernel& kernel_;
  vfs::MemFs& fs_;
  sim::DiskModel& disk_;
  NfsServerConfig cfg_;
  vfs::BufferCache page_cache_;
  sim::Semaphore nfsd_;
  std::function<bool(const rpc::Credential&)> authorizer_;
  std::unordered_map<std::string, vfs::FileId> exports_;
  std::unordered_map<vfs::FileId, u64> dirty_bytes_;
  std::unordered_map<vfs::FileId, u64> last_read_page_;
  std::array<u64, kNfsProcs.size()> proc_calls_{};
  // Duplicate request cache: bounded FIFO of cached replies for recent
  // non-idempotent transactions, keyed on a hash of (client identity, prog,
  // proc, xid) and verified against the stored full tuple on every hit.
  std::unordered_map<u64, DrcEntry> drc_;
  std::deque<u64> drc_order_;
  // ---- lease table ---------------------------------------------------------
  struct LeaseHolder {
    u64 client = 0;
    LeaseMode mode = LeaseMode::kRead;
    SimTime expiry = 0;
    bool recall_sent = false;
  };
  struct LeaseEntry {
    Fh fh;
    std::vector<LeaseHolder> holders;
  };
  std::unordered_map<u64, LeaseEntry> leases_;
  std::unordered_map<u64, rpc::RpcChannel*> lease_callbacks_;
  std::vector<LeaseGrant> lease_grants_;
  u32 recall_xid_ = 0x5B000000;
  metrics::Counter leases_granted_;
  metrics::Counter leases_denied_;
  metrics::Counter lease_recalls_;
  metrics::Counter lease_recall_failures_;
  metrics::Counter lease_expirations_;
  metrics::Counter lease_releases_;
  metrics::Counter lease_clears_;
  metrics::Counter drc_hits_;
  metrics::Counter drc_inserts_;
  metrics::Counter drc_collisions_;
  metrics::Counter drc_clears_;
  metrics::Counter drc_retained_;
  metrics::Counter total_calls_;
  metrics::Histogram service_ms_;  // virtual-time per-RPC service latency
  trace::RpcTracer* tracer_ = nullptr;
  u64 write_verifier_;
};

}  // namespace gvfs::nfs
