// The GVFS user-level file system proxy (§3). A proxy behaves as an NFS
// server toward its downstream (kernel client or another proxy) and as an
// NFS client toward its upstream, so proxies cascade into multi-level
// hierarchies (§3.2.1). Depending on attachments one instance plays either
// role from the paper:
//   * server-side proxy: authenticates requests and remaps credentials onto
//     short-lived shadow accounts (logical user accounts);
//   * client-side proxy: block-based disk cache (write-back or
//     write-through), meta-data handling (zero-block filtering + the
//     file-based channel into a whole-file cache), and middleware-driven
//     consistency signals.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "cache/block_cache.h"
#include "cache/file_cache.h"
#include "common/metrics.h"
#include "common/mutation_epoch.h"
#include "common/trace.h"
#include "meta/file_channel.h"
#include "meta/meta_file.h"
#include "nfs/nfs_types.h"
#include "proxy/single_flight.h"
#include "rpc/rpc.h"

namespace gvfs::proxy {

struct ProxyConfig {
  std::string name = "gvfs-proxy";
  // Upstream READ granularity: the proxy fetches whole cache blocks
  // (<= the 32 KB NFS limit) regardless of the downstream rsize.
  u32 fetch_block = 32_KiB;
  SimDuration attr_ttl = 5 * kSecond;
  bool enable_meta = true;  // honour meta-data files when found

  // §6 future work, implemented: dynamic profiling of access behaviour to
  // drive pre-fetching. After kPrefetchTrigger consecutive sequential block
  // fetches on a file, the proxy pipelines `prefetch_depth` blocks ahead
  // (0 disables).
  u32 prefetch_depth = 0;

  // Degraded-mode operation during WAN outages (partitions, server
  // reboots): keep serving reads from the caches (session consistency
  // permits it), park failed write-backs, replay them on reconnect.
  // Off by default — without it upstream timeouts surface as errors.
  bool degraded_mode = false;

  // Asynchronous batched write-back: instead of one blocking FILE_SYNC
  // WRITE per dirty block, evicted / signalled dirty blocks wait in the
  // pending-write log for a background flusher process that drains it file
  // by file as pipelined UNSTABLE WRITE bursts followed by one COMMIT (the
  // NFSv3 safe-asynchronous-write protocol). The COMMIT verifier is checked
  // against every WRITE's verifier; a mismatch means the server rebooted
  // mid-flush and the whole file is re-sent. Off by default — the write
  // path stays byte-identical to the synchronous proxy.
  bool async_writeback = false;

  // Delegation-style leases (DESIGN.md §5.10): acquire a write lease from
  // the origin before a WRITE is absorbed or forwarded, a read lease before
  // a cached READ is served, honour server recalls (flush dirty state, then
  // drop cached frames and attrs for the recalled file), and fence replay
  // of degraded writes behind write-lease re-acquisition. Off by default —
  // the request paths stay byte-identical to the lease-free proxy.
  bool enable_leases = false;
  // Identity presented on LEASE_ACQUIRE and matched by server recalls.
  u64 lease_client_id = 0;
};

class GvfsProxy final : public rpc::RpcHandler {
 public:
  // Sequential block fetches on a file before read-ahead starts.
  static constexpr u32 kPrefetchTrigger = 3;
  // Bound on cached attributes; the least-recently-touched entry is evicted
  // past it.
  static constexpr u32 kAttrCacheEntries = 8192;

  GvfsProxy(ProxyConfig cfg, rpc::RpcChannel& upstream);

  // ---- attachments ---------------------------------------------------------
  // Client-side block cache; the proxy wires the cache's writeback to
  // upstream WRITEs.
  void attach_block_cache(cache::ProxyDiskCache& c);
  // Meta-data file channel: whole-file cache + transfer engine.
  void attach_file_channel(meta::FileChannelClient& channel, cache::FileCache& fc);
  // Server-side identity mapping (logical user accounts).
  void set_cred_mapper(std::function<rpc::Credential(const rpc::Credential&)> fn) {
    cred_mapper_ = std::move(fn);
  }
  // Server-side authorization policy.
  void set_authorizer(std::function<bool(const rpc::Credential&)> fn) {
    authorizer_ = std::move(fn);
  }

  // ---- RPC service ---------------------------------------------------------
  rpc::RpcReply handle(sim::Process& p, const rpc::RpcCall& call) override;

  // ---- middleware consistency signals (O/S signals in the paper) -----------
  // SIGUSR1-equivalent: write dirty cache state upstream, keep it cached.
  Status signal_write_back(sim::Process& p);
  // SIGUSR2-equivalent: write back and invalidate everything.
  Status signal_flush(sim::Process& p);
  // Reconnect signal: replay write-backs parked while the upstream was
  // unreachable (degraded mode), then re-probe every attribute that was
  // served stale during the outage (a remote truncate performed mid-outage
  // must become visible here, not at the attr TTL's leisure). The lazy
  // recovery path (first successful upstream call) only replays.
  Status signal_reconnect(sim::Process& p);

  // Drop soft state only (attr cache, learned namespace, parsed meta-data)
  // without touching cache contents or charging time — used by experiment
  // harnesses to cold-start cleanly. Caches are dropped by their owners.
  void drop_soft_state();

  // ---- observability -------------------------------------------------------
  [[nodiscard]] u64 calls_received() const { return calls_received_.value(); }
  [[nodiscard]] u64 calls_forwarded() const { return calls_forwarded_.value(); }
  [[nodiscard]] u64 reads_served_from_block_cache() const { return block_hits_.value(); }
  [[nodiscard]] u64 reads_served_from_file_cache() const { return file_hits_.value(); }
  [[nodiscard]] u64 zero_filtered_reads() const { return zero_filtered_.value(); }
  [[nodiscard]] u64 writes_absorbed() const { return writes_absorbed_.value(); }
  [[nodiscard]] u64 meta_files_loaded() const;
  [[nodiscard]] u64 blocks_prefetched() const { return blocks_prefetched_.value(); }
  // Cache misses served by aliasing identical resident bytes (no upstream
  // fetch). When the attached block cache dedups (BlockCacheConfig::
  // dedup_blocks) and a file's meta-data carries a per-block fingerprint
  // table at this proxy's fetch granularity, a miss first probes the cache's
  // dedup store: identical bytes already resident under any other file or
  // block are aliased locally instead of fetched upstream.
  [[nodiscard]] u64 dedup_filtered_reads() const { return dedup_filtered_.value(); }

  // ---- lease metrics -------------------------------------------------------
  [[nodiscard]] u64 leases_acquired() const { return leases_acquired_.value(); }
  [[nodiscard]] u64 lease_acquire_retries() const { return lease_acquire_retries_.value(); }
  [[nodiscard]] u64 lease_acquire_failures() const { return lease_acquire_failures_.value(); }
  [[nodiscard]] u64 recalls_served() const { return recalls_served_.value(); }
  [[nodiscard]] u64 lease_fences() const { return lease_fences_.value(); }
  [[nodiscard]] std::size_t held_lease_count() const;

  // ---- attr-cache metrics --------------------------------------------------
  [[nodiscard]] std::size_t attr_cache_size() const { return attr_cache_gauge_.value(); }
  [[nodiscard]] u64 attr_evictions() const { return attr_evictions_.value(); }
  [[nodiscard]] u64 attr_revalidations() const { return attr_revalidations_.value(); }

  // ---- degraded-mode / recovery metrics ------------------------------------
  [[nodiscard]] bool upstream_down() const { return upstream_down_; }
  [[nodiscard]] u64 degraded_reads() const { return degraded_reads_.value(); }
  [[nodiscard]] u64 queued_writebacks() const { return queued_writebacks_.value(); }
  [[nodiscard]] u64 replayed_writebacks() const { return replayed_writebacks_.value(); }
  [[nodiscard]] u64 coalesced_writebacks() const { return coalesced_writebacks_.value(); }
  // Log entries parked for replay.
  [[nodiscard]] u64 pending_writebacks() const;

  // ---- async flusher / single-flight metrics -------------------------------
  [[nodiscard]] u64 flush_enqueued_blocks() const { return flush_enqueued_.value(); }
  [[nodiscard]] u64 flush_unstable_writes() const { return flush_unstable_writes_.value(); }
  [[nodiscard]] u64 flush_commits() const { return flush_commits_.value(); }
  [[nodiscard]] u64 flush_verifier_resends() const { return flush_verifier_resends_.value(); }
  [[nodiscard]] u64 flush_queue_reads() const { return flush_queue_reads_.value(); }
  // Log entries queued for a flush (not yet in flight).
  [[nodiscard]] u64 pending_flush_blocks() const;
  // Upstream fetches this proxy led on behalf of concurrent readers / the
  // number of reader fetches coalesced onto another reader's in-flight one.
  [[nodiscard]] u64 single_flight_leads() const { return single_flight_leads_.value(); }
  [[nodiscard]] u64 single_flight_waits() const { return single_flight_waits_.value(); }
  // Virtual time spent with the upstream marked unreachable (closed outages).
  [[nodiscard]] SimDuration outage_time() const { return outage_total_; }
  // Duration of the last outage, first timeout -> queue fully replayed.
  [[nodiscard]] SimDuration last_recovery_time() const { return last_recovery_time_; }

  // Call after attach_block_cache: the dedup counter is registered only
  // when the attached cache dedups.
  void register_metrics(metrics::Registry& r, const std::string& prefix) const {
    r.register_counter(prefix + "calls_received", &calls_received_);
    r.register_counter(prefix + "calls_forwarded", &calls_forwarded_);
    r.register_counter(prefix + "block_cache_read_hits", &block_hits_);
    r.register_counter(prefix + "file_cache_read_hits", &file_hits_);
    r.register_counter(prefix + "zero_filtered_reads", &zero_filtered_);
    r.register_counter(prefix + "writes_absorbed", &writes_absorbed_);
    r.register_counter(prefix + "blocks_prefetched", &blocks_prefetched_);
    r.register_counter(prefix + "degraded_reads", &degraded_reads_);
    r.register_counter(prefix + "queued_writebacks", &queued_writebacks_);
    r.register_counter(prefix + "replayed_writebacks", &replayed_writebacks_);
    r.register_counter(prefix + "coalesced_writebacks", &coalesced_writebacks_);
    r.register_counter(prefix + "flush_enqueued_blocks", &flush_enqueued_);
    r.register_counter(prefix + "flush_unstable_writes", &flush_unstable_writes_);
    r.register_counter(prefix + "flush_commits", &flush_commits_);
    r.register_counter(prefix + "flush_verifier_resends", &flush_verifier_resends_);
    r.register_counter(prefix + "flush_queue_reads", &flush_queue_reads_);
    r.register_counter(prefix + "single_flight_leads", &single_flight_leads_);
    r.register_counter(prefix + "single_flight_waits", &single_flight_waits_);
    r.register_counter(prefix + "attr_evictions", &attr_evictions_);
    r.register_counter(prefix + "attr_revalidations", &attr_revalidations_);
    r.register_gauge(prefix + "attr_cache_entries", &attr_cache_gauge_);
    if (dedups_()) r.register_counter(prefix + "dedup_filtered_reads", &dedup_filtered_);
    if (cfg_.enable_leases) {
      r.register_counter(prefix + "leases_acquired", &leases_acquired_);
      r.register_counter(prefix + "lease_acquire_retries", &lease_acquire_retries_);
      r.register_counter(prefix + "lease_acquire_failures", &lease_acquire_failures_);
      r.register_counter(prefix + "lease_recalls_served", &recalls_served_);
      r.register_counter(prefix + "lease_fences", &lease_fences_);
    }
  }

  // Annotate cache-hit / forward / degraded outcomes onto the caller's open
  // trace span; the layer label is this proxy's configured name so cascade
  // levels stay distinguishable.
  void set_tracer(trace::RpcTracer* t) { tracer_ = t; }

 private:
  struct ParentLink {
    nfs::Fh dir;
    std::string name;
  };
  struct CachedAttr {
    vfs::Attr attr;
    SimTime expires;
    u64 lru_tick = 0;  // recency for bounded eviction (kAttrCacheEntries)
  };
  // Access profile: last block fetched and current sequential run length
  // (the "dynamic profiling of application data access behavior" the
  // paper's conclusions call for).
  struct AccessProfile {
    u64 last_block = ~u64{0};
    u32 run = 0;
    u64 ahead_until = 0;  // exclusive end of the prefetched window
  };
  struct HeldLease {
    nfs::LeaseMode mode;
    SimTime expiry;
  };
  // Everything the proxy knows about one file, keyed by fh.key(). One rule
  // forgets a file (forget_); drop_soft_state() resets the soft fields of
  // every record. Records are never erased: a parent link could not be
  // relearned (the kernel client keeps its dentries, so it never LOOKUPs
  // the name again), and without it the meta-data probe stops working.
  struct FileState {
    nfs::Fh fh;
    std::optional<ParentLink> parent;  // learned from LOOKUP / CREATE
    // At most kAttrCacheEntries records hold attributes; eviction drops
    // only this field.
    std::optional<CachedAttr> attr;
    bool stale_served = false;  // attr answered past its TTL mid-outage
    u64 staged_size = 0;        // size including absorbed writes (0: none)
    bool meta_probed = false;   // the meta-data file was looked for
    std::optional<meta::MetaFile> meta;
    // The zero map and the fingerprint table describe the file as
    // installed. Once a WRITE passes through or the file is forgotten
    // (truncate, recall, reconnect) they no longer vouch for its bytes, so
    // zero filtering and the dedup probe skip it for the proxy's lifetime.
    bool meta_stale = false;
    AccessProfile profile;
    std::optional<HeldLease> lease;
  };

  // The record for `fh`, created on first use.
  FileState& file_(const nfs::Fh& fh);
  // The record for `key`, or null.
  [[nodiscard]] FileState* find_(u64 key);
  [[nodiscard]] const FileState* find_(u64 key) const;
  // Drop the file's cached frames, whole-file copy, attributes, staged size
  // and read-ahead window, and mark its meta-data stale. Callers write
  // back first whatever must survive.
  void forget_(FileState& f);
  // The attached block cache interns clean blocks by content.
  [[nodiscard]] bool dedups_() const {
    return block_cache_ != nullptr && block_cache_->config().dedup_blocks;
  }

  // -- upstream helpers ------------------------------------------------------
  rpc::RpcReply forward_(sim::Process& p, const rpc::RpcCall& call);
  // A fresh NFSv3 call (next xid) toward the upstream.
  rpc::RpcCall nfs_call_(nfs::Proc proc, rpc::MessagePtr args, const rpc::Credential& cred);
  template <typename Res>
  Result<std::shared_ptr<const Res>> upstream_as_(sim::Process& p, nfs::Proc proc,
                                                  rpc::MessagePtr args,
                                                  const rpc::Credential& cred);

  // -- request handlers ------------------------------------------------------
  rpc::RpcReply handle_read_(sim::Process& p, const rpc::RpcCall& call,
                             const nfs::ReadArgs& a);
  rpc::RpcReply handle_write_(sim::Process& p, const rpc::RpcCall& call,
                              const nfs::WriteArgs& a);
  rpc::RpcReply handle_getattr_(sim::Process& p, const rpc::RpcCall& call,
                                const nfs::GetattrArgs& a);
  rpc::RpcReply handle_commit_(sim::Process& p, const rpc::RpcCall& call,
                               const nfs::CommitArgs& a);
  rpc::RpcReply handle_setattr_(sim::Process& p, const rpc::RpcCall& call,
                                const nfs::SetattrArgs& a);

  // -- leases ----------------------------------------------------------------
  // Hold (or acquire, retrying through server-side recalls) a lease of at
  // least `mode` strength on `fh`. No-op when leases are off or the origin
  // answered kNotSupported once.
  Status ensure_lease_(sim::Process& p, const nfs::Fh& fh, nfs::LeaseMode mode,
                       const rpc::Credential& cred);
  // Server-initiated recall (callback program): flush the file's dirty
  // state upstream, forget the file and its lease.
  rpc::RpcReply handle_recall_(sim::Process& p, const rpc::RpcCall& call);

  // -- meta-data -------------------------------------------------------------
  // Look for (and load) a meta-data file for `fh` the first time it is read.
  const meta::MetaFile* meta_for_(sim::Process& p, const nfs::Fh& fh,
                                  const rpc::Credential& cred);

  // -- block cache internals -------------------------------------------------
  // Read one proxy block (block index in fetch_block units) through the
  // cache, then the pending-write log, then the upstream; returns its data
  // (may be short at EOF).
  Result<blob::BlobRef> get_block_(sim::Process& p, const nfs::Fh& fh, u64 block,
                                   const rpc::Credential& cred);
  // The cache-miss upstream READ (single-flight wraps this).
  Result<blob::BlobRef> fetch_block_upstream_(sim::Process& p, const nfs::Fh& fh,
                                              u64 block, const rpc::Credential& cred);
  // Access-profile bookkeeping + pipelined read-ahead when a sequential run
  // is detected.
  void maybe_prefetch_(sim::Process& p, const nfs::Fh& fh, u64 block, u64 file_size,
                       const rpc::Credential& cred);
  // The block cache's write-back hook: stages the block in the log, then
  // leaves it to the flusher (async) or drains it inline with FILE_SYNC.
  Status cache_writeback_(sim::Process& p, const cache::BlockId& id,
                          const blob::BlobRef& data);
  // Write back the block cache's dirty blocks (one file's, or all), drain
  // the log inline, then upload the dirty whole-file copies: the only way
  // staged bytes reach the origin. Every durability point (signal, recall,
  // reconnect re-probe, truncate) and a file-channel fetch of a file with
  // staged bytes go through here; truncate and fetch by way of sync_file_.
  Status write_back_(sim::Process& p, std::optional<u64> file_key = std::nullopt);
  // write_back_ the file, then wait out its sends in flight, until it has
  // no dirty frame, no dirty whole-file copy and no send in flight.
  Status sync_file_(sim::Process& p, u64 file_key);
  // The file has a dirty frame in the block cache or an entry in the log.
  [[nodiscard]] bool has_staged_(u64 file_key) const;

  // -- the pending-write log (DESIGN.md §5.5) --------------------------------
  // Every staged byte range not yet acknowledged upstream: dirty blocks from
  // the block cache (block-aligned offsets) and write-through WRITEs
  // acknowledged during an outage (raw offsets). One entry per key holds the
  // newest bytes; it leaves the log only when a send carrying its current
  // stamp is acknowledged, so bytes in flight stay readable.
  using LogKey = std::pair<u64, u64>;  // (file_key, byte offset)
  struct PendingWrite {
    nfs::Fh fh;
    blob::BlobRef data;
    u64 seq = 0;    // next_write_seq_ stamp of `data`
    u64 order = 0;  // drain position (first enqueue) while queued
    u64 sent = 0;   // stamp of the newest send still in flight (0: none)
    bool parked = false;  // failed mid-outage: waits for the reconnect replay
    // Waiting for a flush drain: not parked, current bytes not yet sent.
    [[nodiscard]] bool queued() const { return !parked && sent != seq; }
  };
  // A send's copy of one entry: the bytes and the stamp it carries.
  struct Staged {
    LogKey key;
    blob::BlobRef data;
    u64 seq = 0;
  };
  // How an entry leaves flight when its send ends (if its stamp is unchanged).
  enum class Settle { kDone, kPark, kRequeue };

  // Record `data` as the newest bytes for `key` under a fresh stamp (a
  // shorter write keeps the older bytes' tail). `parked` entries wait for
  // the replay; the others for a drain.
  PendingWrite& stage_(const nfs::Fh& fh, const LogKey& key, const blob::BlobRef& data,
                       bool parked);
  void settle_(const LogKey& key, u64 seq, Settle how);
  // A failed send parks its entries (instead of failing) while degraded.
  [[nodiscard]] bool parks_(const Status& st) const;
  // The next file to flush (the one holding the oldest queued entry) with
  // its queued entries in first-enqueue order, marked in flight.
  std::vector<Staged> take_batch_(nfs::Fh& fh);
  // Async drain: flush files until nothing is queued. Re-entrant — entries
  // are marked in flight before their RPCs, so the background flusher and
  // inline drains never send the same bytes twice.
  Status drain_(sim::Process& p);
  // One file's batch: pipelined UNSTABLE bursts + one COMMIT, re-sent on a
  // verifier mismatch; settles the batch however the sends end.
  Status flush_file_(sim::Process& p, const nfs::Fh& fh, const std::vector<Staged>& batch);
  // Reconnect: FILE_SYNC drain of the parked entries, oldest stamp first,
  // behind the lease fence; the outage closes once none is left.
  Status replay_parked_(sim::Process& p);
  // The newest staged bytes of one block: every entry overlapping its byte
  // range, applied in stamp order. `queued` reports whether any of them is
  // headed for a flush rather than parked.
  [[nodiscard]] std::optional<blob::BlobRef> staged_block_(u64 file_key, u64 block,
                                                          bool* queued = nullptr) const;
  // Truncate support: drop the file's cached frames wholly past `size` and
  // its log entries at or past it (except in-flight ones), and trim entries
  // straddling it.
  void drop_staged_(u64 file_key, u64 size);

  // -- degraded mode ---------------------------------------------------------
  // Record an upstream timeout (opens an outage; replay_parked_ closes it).
  void note_upstream_timeout_(SimTime now);
  // Attribute lookup ignoring the TTL (stale is better than nothing while
  // the upstream is unreachable). Files served during an outage are marked
  // stale_served for the reconnect-time re-probe.
  [[nodiscard]] std::optional<vfs::Attr> stale_attr_(const nfs::Fh& fh);
  // GETATTR re-probe of every file marked stale_served (in key order, so
  // the probe order is deterministic); a vanished file, or a shrunken size
  // (a remote truncate mid-outage), forgets the file.
  Status revalidate_stale_attrs_(sim::Process& p);
  // LOOKUP served from the learned namespace during an outage (null = miss).
  [[nodiscard]] std::shared_ptr<nfs::LookupRes> degraded_lookup_(
      const nfs::LookupArgs& a);

  [[nodiscard]] std::optional<vfs::Attr> cached_attr_(const nfs::Fh& fh,
                                                      SimTime now);
  void remember_attr_(const nfs::Fh& fh, const vfs::Attr& a, SimTime now);
  void drop_attr_(FileState& f);
  [[nodiscard]] u64 effective_size_(const nfs::Fh& fh,
                                    const std::optional<vfs::Attr>& a) const;

  ProxyConfig cfg_;
  rpc::RpcChannel& upstream_;
  cache::ProxyDiskCache* block_cache_ = nullptr;
  meta::FileChannelClient* file_channel_ = nullptr;
  cache::FileCache* file_cache_ = nullptr;
  std::function<rpc::Credential(const rpc::Credential&)> cred_mapper_;
  std::function<bool(const rpc::Credential&)> authorizer_;

  std::unordered_map<u64, FileState> files_;  // fh.key()
  rpc::Credential session_cred_;  // per-session identity used upstream

  // The pending-write log and its recency clock: every write entering the
  // log draws a stamp (and every requeue a fresh drain position) from one
  // per-write Lamport clock — the sim is cooperative, so a counter is exact.
  std::map<LogKey, PendingWrite> log_;
  u64 next_write_seq_ = 1;
  // Longest entry ever staged: an entry overlapping a block starts at most
  // this far before it (write-back entries are one block at most,
  // write-through ones as long as the downstream WRITE).
  u64 max_staged_len_ = 0;
  // Dynamic half of the yield-point analysis (DESIGN.md §5.8): bumped on
  // every insert into / erase from log_; the YieldGuard in staged_block_
  // asserts it holds still while entry iterators are live.
  MutationEpoch log_epoch_;
  // Woken whenever a send settles: sync_file_ waits on it for the file's
  // in-flight sends (created on first use).
  std::unique_ptr<sim::Signal> settled_;
  bool flusher_active_ = false;
  bool sync_drain_ = false;  // an inline drain runs; evictions don't spawn
  bool upstream_down_ = false;
  bool replaying_ = false;
  SimTime outage_started_ = 0;
  SimDuration outage_total_ = 0;
  SimDuration last_recovery_time_ = 0;
  metrics::Counter degraded_reads_;
  metrics::Counter queued_writebacks_;
  metrics::Counter replayed_writebacks_;
  metrics::Counter coalesced_writebacks_;
  metrics::Counter flush_enqueued_;
  metrics::Counter flush_unstable_writes_;
  metrics::Counter flush_commits_;
  metrics::Counter flush_verifier_resends_;
  metrics::Counter flush_queue_reads_;

  // ---- single-flight miss coalescing ---------------------------------------
  SingleFlight<std::pair<u64, u64>, Result<blob::BlobRef>> inflight_;
  metrics::Counter single_flight_leads_;
  metrics::Counter single_flight_waits_;

  // ---- lease state ---------------------------------------------------------
  // Latched when the origin answers kNotSupported once (leases toggled off
  // upstream): every later ensure_lease_ becomes a free no-op.
  bool lease_unsupported_ = false;
  metrics::Counter leases_acquired_;
  metrics::Counter lease_acquire_retries_;
  metrics::Counter lease_acquire_failures_;
  metrics::Counter recalls_served_;
  metrics::Counter lease_fences_;

  // ---- attr-cache bound / reconnect revalidation ---------------------------
  u64 attr_tick_ = 0;
  metrics::Counter attr_evictions_;
  metrics::Counter attr_revalidations_;
  metrics::Gauge attr_cache_gauge_;  // records holding attributes

  u32 next_xid_ = 0x70000000;
  metrics::Counter calls_received_;
  metrics::Counter blocks_prefetched_;
  metrics::Counter dedup_filtered_;
  metrics::Counter calls_forwarded_;
  metrics::Counter block_hits_;
  metrics::Counter file_hits_;
  metrics::Counter zero_filtered_;
  metrics::Counter writes_absorbed_;
  trace::RpcTracer* tracer_ = nullptr;
};

}  // namespace gvfs::proxy
