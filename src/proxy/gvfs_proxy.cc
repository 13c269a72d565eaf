#include "proxy/gvfs_proxy.h"

#include <algorithm>

#include "blob/extent_store.h"
#include "common/log.h"

namespace gvfs::proxy {

using nfs::Fh;
using nfs::NfsStat;
using nfs::Proc;

namespace {

// Async drain: WRITE calls per pipelined burst, and verifier-mismatch
// re-send attempts per file before giving up.
constexpr std::size_t kFlushBurst = 32;
constexpr u32 kFlushMaxAttempts = 3;

// Fixed per-call processing cost of the user-level proxy.
constexpr SimDuration kPerCallCpu = 25 * kMicrosecond;

// Conflict back-off between LEASE_ACQUIRE retries (the server answered
// granted=false while it recalls the current holder). The retry horizon
// (delay * retries) must outlast the server's lease_duration so a
// partitioned holder lapses before the contender gives up.
constexpr SimDuration kLeaseRetryDelay = 500 * kMillisecond;
constexpr u32 kLeaseMaxRetries = 128;

std::shared_ptr<nfs::WriteArgs> write_args(const Fh& fh, u64 offset,
                                           const blob::BlobRef& data,
                                           nfs::StableHow stable) {
  auto w = std::make_shared<nfs::WriteArgs>();
  w->fh = fh;
  w->offset = offset;
  w->count = data ? static_cast<u32>(data->size()) : 0;
  w->stable = stable;
  w->data = data;
  return w;
}

}  // namespace

GvfsProxy::GvfsProxy(ProxyConfig cfg, rpc::RpcChannel& upstream)
    : cfg_(std::move(cfg)), upstream_(upstream) {}

void GvfsProxy::attach_block_cache(cache::ProxyDiskCache& c) {
  block_cache_ = &c;
  fetch_block_ = static_cast<u32>(c.config().block_size);
  c.set_writeback([this](sim::Process& p, const cache::BlockId& id,
                         const blob::BlobRef& data) {
    return cache_writeback_(p, id, data);
  });
}

void GvfsProxy::attach_file_channel(meta::FileChannelClient& channel,
                                    cache::FileCache& fc) {
  file_channel_ = &channel;
  file_cache_ = &fc;
  fc.set_upload([this](sim::Process& p, u64 key, const blob::BlobRef& content) {
    const FileState* f = find_(key);
    if (f == nullptr) return err(ErrCode::kStale, "unknown file key");
    return file_channel_->upload_from_cache(p, key, f->fh.fileid, content);
  });
}

// ------------------------------------------------------- upstream helpers --

rpc::RpcCall GvfsProxy::nfs_call_(Proc proc, rpc::MessagePtr args,
                                  const rpc::Credential& cred) {
  rpc::RpcCall c;
  c.xid = next_xid_++;
  c.prog = rpc::kNfsProgram;
  c.vers = rpc::kNfsVersion3;
  c.proc = static_cast<u32>(proc);
  c.cred = cred;
  c.args = std::move(args);
  return c;
}

template <typename Res>
Result<std::shared_ptr<const Res>> GvfsProxy::upstream_as_(sim::Process& p, Proc proc,
                                                           rpc::MessagePtr args,
                                                           const rpc::Credential& cred) {
  calls_forwarded_.inc();
  rpc::RpcReply reply = upstream_.call(p, nfs_call_(proc, std::move(args), cred));
  if (!reply.status.is_ok()) {
    if (reply.status.code() == ErrCode::kTimeout) note_upstream_timeout_(p.now());
    return reply.status;
  }
  (void)replay_parked_(p);  // a success ends an outage: replay what it parked
  auto res = rpc::message_cast<Res>(reply.result);
  if (!res) return err(ErrCode::kBadXdr, "unexpected upstream result");
  return res;
}

rpc::RpcReply GvfsProxy::forward_(sim::Process& p, const rpc::RpcCall& call) {
  rpc::RpcCall fwd = call;
  fwd.xid = next_xid_++;
  if (cred_mapper_) fwd.cred = cred_mapper_(call.cred);
  calls_forwarded_.inc();
  if (tracer_) tracer_->annotate(&p, cfg_.name, "forward", p.now());
  rpc::RpcReply reply = upstream_.call(p, fwd);
  if (reply.status.code() == ErrCode::kTimeout) {
    note_upstream_timeout_(p.now());
  } else if (reply.status.is_ok()) {
    (void)replay_parked_(p);
  }
  reply.xid = call.xid;
  return reply;
}

// ----------------------------------------------------------- file records --

GvfsProxy::FileState& GvfsProxy::file_(const Fh& fh) {
  FileState& f = files_[fh.key()];
  f.fh = fh;
  return f;
}

GvfsProxy::FileState* GvfsProxy::find_(u64 key) {
  auto it = files_.find(key);
  return it == files_.end() ? nullptr : &it->second;
}

const GvfsProxy::FileState* GvfsProxy::find_(u64 key) const {
  auto it = files_.find(key);
  return it == files_.end() ? nullptr : &it->second;
}

void GvfsProxy::forget_(FileState& f) {
  const u64 key = f.fh.key();
  if (block_cache_ != nullptr) block_cache_->invalidate_file(key);
  if (file_cache_ != nullptr) file_cache_->invalidate(key);
  drop_attr_(f);
  f.staged_size = 0;
  // A kept read-ahead window would name frames just dropped, and its refill
  // guard would suppress read-ahead on the next pass over the file.
  f.profile = {};
  f.meta_stale = true;
}

std::optional<vfs::Attr> GvfsProxy::cached_attr_(const Fh& fh, SimTime now) {
  FileState* f = find_(fh.key());
  if (f == nullptr || !f->attr || f->attr->expires <= now) return std::nullopt;
  f->attr->lru_tick = ++attr_tick_;
  return f->attr->attr;
}

void GvfsProxy::remember_attr_(const Fh& fh, const vfs::Attr& a, SimTime now) {
  FileState& f = file_(fh);
  if (!f.attr && attr_cache_gauge_.value() >= kAttrCacheEntries) {
    // Bounded attributes: drop the least-recently-touched. Linear scan —
    // eviction only runs past the (large) bound, and ticks are unique, so
    // the minimum is well defined and hash order cannot leak into behavior.
    FileState* victim = nullptr;
    // gvfs-lint: allow(unordered-iteration) unique-min-tick scan; order cannot escape
    for (auto& entry : files_) {
      FileState& g = entry.second;
      if (g.attr && (victim == nullptr || g.attr->lru_tick < victim->attr->lru_tick)) {
        victim = &g;
      }
    }
    drop_attr_(*victim);
    attr_evictions_.inc();
  }
  if (!f.attr) attr_cache_gauge_.add(1);
  f.attr = CachedAttr{a, now + cfg_.attr_ttl, ++attr_tick_};
}

void GvfsProxy::drop_attr_(FileState& f) {
  if (!f.attr) return;
  f.attr.reset();
  attr_cache_gauge_.sub(1);
}

u64 GvfsProxy::effective_size_(const Fh& fh, const std::optional<vfs::Attr>& a) const {
  const u64 size = a ? a->size : 0;
  const FileState* f = find_(fh.key());
  return f == nullptr ? size : std::max(size, f->staged_size);
}

// -------------------------------------------------------------- meta-data --

const meta::MetaFile* GvfsProxy::meta_for_(sim::Process& p, const Fh& fh,
                                           const rpc::Credential& cred) {
  if (!cfg_.enable_meta) return nullptr;
  FileState& f = file_(fh);
  if (f.meta) return &*f.meta;
  if (f.meta_probed || !f.parent) {
    f.meta_probed = true;
    return nullptr;
  }
  // The probe below yields: each outcome finds the record again.
  auto none = [&]() -> const meta::MetaFile* {
    file_(fh).meta_probed = true;
    return nullptr;
  };

  // Probe for "<dir>/.<name>.gvfsmeta" upstream.
  auto largs = std::make_shared<nfs::LookupArgs>();
  largs->dir = f.parent->dir;
  largs->name = meta::MetaFile::meta_name_for(f.parent->name);
  auto lres = upstream_as_<nfs::LookupRes>(p, Proc::kLookup, largs, cred);
  if (!lres.is_ok() || (*lres)->status != NfsStat::kOk) return none();
  Fh meta_fh = (*lres)->fh;
  u64 meta_size = (*lres)->obj_attr.attr ? (*lres)->obj_attr.attr->size : 0;
  if (meta_size == 0 || meta_size > 64_MiB) return none();

  // Read the whole (small) meta-data file over the block channel.
  blob::ExtentStore content;
  u64 off = 0;
  while (off < meta_size) {
    auto rargs = std::make_shared<nfs::ReadArgs>();
    rargs->fh = meta_fh;
    rargs->offset = off;
    rargs->count = static_cast<u32>(std::min<u64>(fetch_block_, meta_size - off));
    auto rres = upstream_as_<nfs::ReadRes>(p, Proc::kRead, rargs, cred);
    if (!rres.is_ok() || (*rres)->status != NfsStat::kOk || (*rres)->count == 0) {
      return none();
    }
    content.write_blob(off, (*rres)->data, 0, (*rres)->count);
    off += (*rres)->count;
    if ((*rres)->eof) break;
  }
  auto parsed = meta::MetaFile::parse(*content.snapshot());
  if (!parsed.is_ok()) {
    GVFS_WARN("proxy") << cfg_.name << ": malformed meta-data file ignored";
    return none();
  }
  FileState& g = file_(fh);
  g.meta_probed = true;
  if (!g.meta) g.meta = std::move(parsed).value();
  return &*g.meta;
}

// ------------------------------------------------------------ block cache --

Result<blob::BlobRef> GvfsProxy::get_block_(sim::Process& p, const Fh& fh, u64 block,
                                            const rpc::Credential& cred) {
  cache::BlockId id{fh.key(), block};
  if (auto hit = block_cache_->lookup(p, id)) {
    block_hits_.inc();
    if (upstream_down_) degraded_reads_.inc();
    if (tracer_) tracer_->annotate(&p, cfg_.name, "block_cache_hit", p.now());
    return *hit;
  }
  // A staged block that left the cache holds newer bytes than the server
  // until its send is acknowledged (or, parked, until the outage ends):
  // fetching upstream would read stale bytes. Serve the log's copy.
  bool queued = false;
  if (auto staged = staged_block_(fh.key(), block, &queued)) {
    if (queued) flush_queue_reads_.inc();
    if (upstream_down_) degraded_reads_.inc();
    if (tracer_) {
      tracer_->annotate(&p, cfg_.name, queued ? "flush_queue_read" : "degraded_read",
                        p.now());
    }
    return *staged;
  }
  if (tracer_) tracer_->annotate(&p, cfg_.name, "block_cache_miss", p.now());

  if (const FileState* f = find_(fh.key());
      dedups_() && f != nullptr && f->meta && !f->meta_stale) {
    // Content-addressed probe: if this file's meta-data carries a
    // fingerprint table at our fetch granularity, identical bytes already
    // resident under any other file/block are aliased locally instead of
    // fetched upstream (the dedup generalization of zero-block filtering).
    const meta::MetaFile& m = *f->meta;
    if (m.has_fingerprints() && m.fp_block_size() == fetch_block_ &&
        m.fp_seed() == block_cache_->config().dedup_seed) {
      u64 off = block * fetch_block_;
      if (off < m.file_size()) {
        u64 len = std::min<u64>(fetch_block_, m.file_size() - off);
        if (auto shared =
                block_cache_->lookup_fingerprint(m.block_fingerprint(block), len)) {
          dedup_filtered_.inc();
          if (tracer_) tracer_->annotate(&p, cfg_.name, "dedup_alias", p.now());
          // Install the alias (the insert re-fingerprints the shared payload
          // and lands on the same store entry, charging nothing new).
          GVFS_RETURN_IF_ERROR(
              block_cache_->insert(p, id, *shared, /*dirty=*/false));
          return *shared;
        }
      }
    }
  }

  std::pair<u64, u64> key{fh.key(), block};
  if (inflight_.in_flight(key)) {
    // Another downstream reader is already fetching this block: join its
    // fetch instead of issuing a duplicate upstream READ.
    single_flight_waits_.inc();
    if (tracer_) tracer_->annotate(&p, cfg_.name, "single_flight_join", p.now());
    Result<blob::BlobRef> fetched = inflight_.join(p, key, cfg_.name);
    if (!fetched.is_ok()) return fetched.status();
    if (auto hit = block_cache_->lookup(p, id)) {
      block_hits_.inc();
      return *hit;
    }
    return fetched;  // already evicted again: serve the fetched bytes
  }
  single_flight_leads_.inc();
  return inflight_.lead(key, [&] { return fetch_block_upstream_(p, fh, block, cred); });
}

Result<blob::BlobRef> GvfsProxy::fetch_block_upstream_(sim::Process& p, const Fh& fh,
                                                       u64 block,
                                                       const rpc::Credential& cred) {
  cache::BlockId id{fh.key(), block};
  auto rargs = std::make_shared<nfs::ReadArgs>();
  rargs->fh = fh;
  rargs->offset = block * fetch_block_;
  rargs->count = fetch_block_;
  GVFS_ASSIGN_OR_RETURN(auto rres, upstream_as_<nfs::ReadRes>(p, Proc::kRead, rargs, cred));
  if (rres->status != NfsStat::kOk) return err(rres->status, "upstream read");
  if (rres->attr.attr) remember_attr_(fh, *rres->attr.attr, p.now());
  blob::BlobRef data = rres->count > 0 ? rres->data : blob::zero_ref(0);
  // The RPC wait is a scheduling point: a concurrent write + eviction can
  // have staged newer bytes for this block while the READ was in flight.
  // Serve those (and keep the server's stale copy out of the cache, where it
  // would shadow them on the next read).
  bool queued = false;
  if (auto staged = staged_block_(id.file_key, block, &queued)) {
    if (queued) flush_queue_reads_.inc();
    return *staged;
  }
  if (rres->count > 0) {
    GVFS_RETURN_IF_ERROR(block_cache_->insert(p, id, data, /*dirty=*/false));
  }
  return data;
}

void GvfsProxy::maybe_prefetch_(sim::Process& p, const nfs::Fh& fh, u64 block,
                                u64 file_size, const rpc::Credential& cred) {
  AccessProfile& prof = file_(fh).profile;
  if (prof.last_block != ~u64{0} && block == prof.last_block + 1) {
    ++prof.run;
  } else if (block != prof.last_block) {
    prof.run = 0;
  }
  prof.last_block = block;
  if (cfg_.prefetch_depth == 0 || block_cache_ == nullptr ||
      prof.run < kPrefetchTrigger) {
    return;
  }
  // Keep a read-ahead window of `prefetch_depth` blocks open: refill only
  // when the reader has consumed half of it, so the refill is a genuinely
  // pipelined multi-block burst (one RTT amortized over the batch), not a
  // degenerate one-block fetch per request.
  if (block + cfg_.prefetch_depth / 2 < prof.ahead_until) return;
  u64 refill_from = std::max(block + 1, prof.ahead_until);
  u64 refill_to = block + cfg_.prefetch_depth;  // inclusive
  prof.ahead_until = refill_to + 1;

  // Pipeline the missing blocks of the window in one overlapped burst.
  std::vector<rpc::RpcCall> calls;
  std::vector<u64> blocks;
  for (u64 b = refill_from; b <= refill_to; ++b) {
    u64 start = b * fetch_block_;
    if (start >= file_size) break;
    if (block_cache_->contains(cache::BlockId{fh.key(), b})) continue;
    // Staged bytes (queued, in flight or parked) are newer than the
    // server's; inserting a prefetched copy as clean would shadow them —
    // get_block_ consults the cache first.
    if (staged_block_(fh.key(), b)) continue;
    auto args = std::make_shared<nfs::ReadArgs>();
    args->fh = fh;
    args->offset = start;
    args->count = fetch_block_;
    calls.push_back(nfs_call_(Proc::kRead, std::move(args), cred));
    blocks.push_back(b);
  }
  if (calls.empty()) return;
  calls_forwarded_.inc(calls.size());
  std::vector<rpc::RpcReply> replies = upstream_.call_pipelined(p, calls);
  for (std::size_t i = 0; i < replies.size(); ++i) {
    if (!replies[i].status.is_ok()) continue;
    auto res = rpc::message_cast<nfs::ReadRes>(replies[i].result);
    if (!res || res->status != NfsStat::kOk || res->count == 0) continue;
    if (res->attr.attr) remember_attr_(fh, *res->attr.attr, p.now());
    // Re-check after the RPC wait: an eviction during the burst may have
    // staged newer bytes for this block.
    if (staged_block_(fh.key(), blocks[i])) continue;
    (void)block_cache_->insert(p, cache::BlockId{fh.key(), blocks[i]}, res->data,
                               /*dirty=*/false);
    blocks_prefetched_.inc();
  }
}

Status GvfsProxy::cache_writeback_(sim::Process& p, const cache::BlockId& id,
                                   const blob::BlobRef& data) {
  const FileState* f = find_(id.file_key);
  if (f == nullptr) return err(ErrCode::kStale, "writeback: unknown fh");
  // Copy the handle out of the record: the upstream WRITE below yields.
  const nfs::Fh fh = f->fh;
  // These bytes are now the newest for their key: they replace whatever the
  // log held there, parked copies included, so a reconnect replay (possibly
  // triggered by this very write-back landing) cannot put older bytes back.
  const LogKey key{id.file_key, id.block * fetch_block_};
  PendingWrite& w = stage_(fh, key, data, /*parked=*/false);
  if (cfg_.async_writeback) {
    // Asynchronous write-back: the background flusher drains the log as
    // pipelined UNSTABLE bursts + one COMMIT per file. The evicting reader
    // pays no WAN round trip here.
    flush_enqueued_.inc();
    if (!flusher_active_ && !sync_drain_) {
      flusher_active_ = true;
      p.kernel().spawn(cfg_.name + "-flusher", [this](sim::Process& fp) {
        Status st = drain_(fp);
        flusher_active_ = false;
        if (!st.is_ok()) {
          // The failed batch was parked or requeued; the next write-back or
          // signal retries it.
          GVFS_WARN("proxy") << cfg_.name << ": flusher stalled (" << st.to_string()
                             << ")";
        }
      });
    }
    return Status::ok();
  }
  // Synchronous write-back: an inline drain of this one entry, FILE_SYNC.
  const u64 seq = w.seq;
  w.sent = seq;
  auto res = upstream_as_<nfs::WriteRes>(
      p, Proc::kWrite, write_args(fh, key.second, data, nfs::StableHow::kFileSync),
      session_cred_);
  if (!res.is_ok()) {
    // Any transport-level failure while the upstream is unreachable (not
    // just the first timeout — retries during an outage can surface other
    // transport errors) parks the block: it is leaving the cache, so the
    // log is the only place its data survives. Otherwise the cache keeps
    // the block dirty and the error goes back to it.
    const bool park = parks_(res.status());
    settle_(key, seq, park ? Settle::kPark : Settle::kDone);
    return park ? Status::ok() : res.status();
  }
  settle_(key, seq, Settle::kDone);
  if ((*res)->status != NfsStat::kOk) return err((*res)->status, "writeback write");
  if ((*res)->attr.attr) remember_attr_(fh, *(*res)->attr.attr, p.now());
  return Status::ok();
}

Status GvfsProxy::sync_file_(sim::Process& p, u64 file_key) {
  auto sending = [&] {
    for (auto it = log_.lower_bound({file_key, 0});
         it != log_.end() && it->first.first == file_key; ++it) {
      if (it->second.sent != 0) return true;
    }
    return false;
  };
  // Writes keep arriving while this waits, so write-back and wait repeat
  // until one yield-free check finds nothing left.
  for (;;) {
    GVFS_RETURN_IF_ERROR(write_back_(p, file_key));
    if (sending()) {
      if (!settled_) settled_ = std::make_unique<sim::Signal>(p.kernel(), cfg_.name + "-log");
      p.wait(*settled_);
    } else if ((block_cache_ == nullptr || block_cache_->file_dirty_blocks(file_key) == 0) &&
               (file_cache_ == nullptr || !file_cache_->dirty(file_key))) {
      return Status::ok();
    }
  }
}

bool GvfsProxy::has_staged_(u64 file_key) const {
  auto it = log_.lower_bound({file_key, 0});
  if (it != log_.end() && it->first.first == file_key) return true;
  return block_cache_ != nullptr && block_cache_->file_dirty_blocks(file_key) != 0;
}

Status GvfsProxy::write_back_(sim::Process& p, std::optional<u64> file_key) {
  if (block_cache_ != nullptr) {
    // The caller needs the bytes upstream now: drain inline instead of
    // racing a background flusher (sync_drain_ suppresses spawns from the
    // evictions the write-back triggers).
    sync_drain_ = true;
    Status st = file_key ? block_cache_->write_back_file(p, *file_key)
                         : block_cache_->write_back_all(p);
    if (st.is_ok() && cfg_.async_writeback) st = drain_(p);
    sync_drain_ = false;
    GVFS_RETURN_IF_ERROR(st);
  }
  if (file_cache_ == nullptr) return Status::ok();
  return file_key ? file_cache_->write_back(p, *file_key) : file_cache_->write_back_all(p);
}

// ------------------------------------------------------- pending-write log --

GvfsProxy::PendingWrite& GvfsProxy::stage_(const Fh& fh, const LogKey& key,
                                           const blob::BlobRef& data, bool parked) {
  const u64 seq = next_write_seq_++;
  auto [it, fresh] = log_.try_emplace(key);
  PendingWrite& w = it->second;
  if (fresh) {
    log_epoch_.bump();
    w.data = data;
    if (parked) queued_writebacks_.inc();
  } else {
    // Newest bytes win; a shorter winner keeps the older bytes' tail so the
    // entry still covers every byte the log promised.
    const u64 old_n = w.data ? w.data->size() : 0;
    const u64 new_n = data ? data->size() : 0;
    if (new_n >= old_n) {
      w.data = data;
    } else {
      blob::ExtentStore merged;
      merged.truncate(old_n);
      merged.write_blob(0, w.data, 0, old_n);
      merged.write_blob(0, data, 0, new_n);
      w.data = merged.snapshot();
    }
    if (w.parked) coalesced_writebacks_.inc();
  }
  max_staged_len_ = std::max(max_staged_len_, w.data ? w.data->size() : 0);
  // A queued entry keeps its drain position; a new, in-flight or parked one
  // queues behind everything already waiting.
  if (!w.queued()) w.order = seq;
  w.fh = fh;
  w.seq = seq;
  w.parked = parked;
  return w;
}

void GvfsProxy::settle_(const LogKey& key, u64 seq, Settle how) {
  if (settled_) settled_->notify_all();
  auto it = log_.find(key);
  if (it == log_.end()) return;
  PendingWrite& w = it->second;
  if (w.sent == seq) w.sent = 0;
  // Newer bytes arrived while this send was out: they are staged on their
  // own and this send's outcome says nothing about them.
  if (w.seq != seq) return;
  switch (how) {
    case Settle::kDone:
      log_.erase(it);
      log_epoch_.bump();
      break;
    case Settle::kPark:
      if (!w.parked) queued_writebacks_.inc();
      w.parked = true;
      break;
    case Settle::kRequeue:
      w.order = next_write_seq_++;  // back of the drain order
      break;
  }
}

bool GvfsProxy::parks_(const Status& st) const {
  return cfg_.degraded_mode && (st.code() == ErrCode::kTimeout || upstream_down_);
}

std::vector<GvfsProxy::Staged> GvfsProxy::take_batch_(Fh& fh) {
  std::vector<Staged> batch;
  const PendingWrite* oldest = nullptr;
  u64 file = 0;
  for (const auto& [key, w] : log_) {
    if (w.queued() && (oldest == nullptr || w.order < oldest->order)) {
      oldest = &w;
      file = key.first;
    }
  }
  if (oldest == nullptr) return batch;
  fh = oldest->fh;
  std::vector<std::map<LogKey, PendingWrite>::iterator> picked;
  for (auto it = log_.lower_bound({file, 0}); it != log_.end() && it->first.first == file;
       ++it) {
    if (it->second.queued()) picked.push_back(it);
  }
  std::sort(picked.begin(), picked.end(),
            [](const auto& a, const auto& b) { return a->second.order < b->second.order; });
  batch.reserve(picked.size());
  for (const auto& it : picked) {
    it->second.sent = it->second.seq;  // in flight from here on
    batch.push_back(Staged{it->first, it->second.data, it->second.seq});
  }
  return batch;
}

Status GvfsProxy::drain_(sim::Process& p) {
  for (;;) {
    Fh fh;
    const std::vector<Staged> batch = take_batch_(fh);
    if (batch.empty()) return Status::ok();
    GVFS_RETURN_IF_ERROR(flush_file_(p, fh, batch));
  }
}

Status GvfsProxy::flush_file_(sim::Process& p, const Fh& fh,
                              const std::vector<Staged>& batch) {
  auto settle = [&](Settle how, Status st) {
    for (const Staged& s : batch) settle_(s.key, s.seq, how);
    return st;
  };
  // A transport failure parks the batch mid-outage (the replay's FILE_SYNC
  // restores durability on reconnect) and requeues it otherwise. A server
  // that answers with an error gets nothing re-sent.
  auto failed = [&](const Status& st) {
    return parks_(st) ? settle(Settle::kPark, Status::ok()) : settle(Settle::kRequeue, st);
  };
  std::vector<Staged> resends;  // a re-send's entries (see below)
  for (u32 attempt = 0; attempt < kFlushMaxAttempts; ++attempt) {
    const std::vector<Staged>& todo = attempt == 0 ? batch : resends;
    std::vector<u64> write_verfs;
    write_verfs.reserve(todo.size());

    // Pipelined UNSTABLE WRITE bursts (same overlap machinery as prefetch).
    for (std::size_t base = 0; base < todo.size(); base += kFlushBurst) {
      const std::size_t burst_end = std::min(todo.size(), base + kFlushBurst);
      std::vector<rpc::RpcCall> calls;
      calls.reserve(burst_end - base);
      for (std::size_t i = base; i < burst_end; ++i) {
        calls.push_back(nfs_call_(Proc::kWrite,
                                  write_args(fh, todo[i].key.second, todo[i].data,
                                             nfs::StableHow::kUnstable),
                                  session_cred_));
      }
      calls_forwarded_.inc(calls.size());
      std::vector<rpc::RpcReply> replies = upstream_.call_pipelined(p, calls);
      for (const rpc::RpcReply& reply : replies) {
        if (!reply.status.is_ok()) {
          if (reply.status.code() == ErrCode::kTimeout) note_upstream_timeout_(p.now());
          return failed(reply.status);
        }
        auto res = rpc::message_cast<nfs::WriteRes>(reply.result);
        if (!res) {
          return settle(Settle::kDone, err(ErrCode::kBadXdr, "unexpected flush write result"));
        }
        if (res->status != NfsStat::kOk) {
          return settle(Settle::kDone, err(res->status, "flush write"));
        }
        flush_unstable_writes_.inc();
        write_verfs.push_back(res->verifier);
        if (res->attr.attr) remember_attr_(fh, *res->attr.attr, p.now());
      }
      (void)replay_parked_(p);  // the burst landed: an outage is over
    }

    // One COMMIT covers the whole file's unstable writes. Uncommitted
    // UNSTABLE data on an unreachable server counts as lost.
    auto cargs = std::make_shared<nfs::CommitArgs>();
    cargs->fh = fh;
    cargs->offset = 0;
    cargs->count = 0;  // RFC 1813: 0 = commit everything
    auto cres = upstream_as_<nfs::CommitRes>(p, Proc::kCommit, cargs, session_cred_);
    if (!cres.is_ok()) return failed(cres.status());
    if ((*cres)->status != NfsStat::kOk) {
      return settle(Settle::kDone, err((*cres)->status, "flush commit"));
    }
    flush_commits_.inc();
    const u64 commit_verf = (*cres)->verifier;
    if (std::all_of(write_verfs.begin(), write_verfs.end(),
                    [commit_verf](u64 v) { return v == commit_verf; })) {
      if ((*cres)->attr.attr) remember_attr_(fh, *(*cres)->attr.attr, p.now());
      return settle(Settle::kDone, Status::ok());
    }
    // The server rebooted between the WRITEs and the COMMIT: every
    // unstable write may have been lost with its volatile state. Re-send
    // the whole file (RFC 1813 §3.3.7 writeverf protocol) — except entries
    // re-staged or acknowledged since the batch was taken: their newer
    // bytes have a send of their own, which these must not overwrite.
    flush_verifier_resends_.inc();
    if (tracer_) tracer_->annotate(&p, cfg_.name, "flush_verf_resend", p.now());
    if (attempt == 0) resends = batch;
    std::erase_if(resends, [&](const Staged& s) {
      auto it = log_.find(s.key);
      return it == log_.end() || it->second.seq != s.seq;
    });
  }
  return settle(Settle::kRequeue,
                err(ErrCode::kIo, "flush: verifier kept changing (server reboot loop)"));
}

Status GvfsProxy::replay_parked_(sim::Process& p) {
  if (!upstream_down_ || replaying_) return Status::ok();
  replaying_ = true;
  if (cfg_.enable_leases && !lease_unsupported_) {
    // Lease-loss fencing: a node whose write lease lapsed during the
    // partition must prove exclusive ownership again before its parked
    // writes replay — the lease may have moved to another writer whose
    // bytes these stale entries would otherwise clobber blindly. Collect
    // the keys up front (ensure_lease_ yields; log iterators don't survive
    // that); the log's key order makes them sorted and probing
    // deterministic.
    std::vector<u64> fence_keys;
    for (const auto& [key, w] : log_) {
      if (w.parked && (fence_keys.empty() || fence_keys.back() != key.first)) {
        fence_keys.push_back(key.first);
      }
    }
    for (u64 k : fence_keys) {
      const FileState* f = find_(k);
      if (f == nullptr || (f->lease && f->lease->mode == nfs::LeaseMode::kWrite &&
                           f->lease->expiry > p.now())) {
        continue;
      }
      const nfs::Fh fh = f->fh;  // copy: ensure_lease_ yields
      lease_fences_.inc();
      Status fs = ensure_lease_(p, fh, nfs::LeaseMode::kWrite, session_cred_);
      if (!fs.is_ok()) {
        // Cannot re-establish ownership: abort the replay and stay
        // degraded; the next reconnect signal (or upstream success) retries.
        replaying_ = false;
        return fs;
      }
    }
  }
  // Oldest stamp first, so a newer overlapping write lands last on the
  // server. Every WRITE is an RPC wait point during which other frames
  // stage, park and settle entries, so each round picks afresh and an entry
  // leaves only if its stamp is unchanged — bytes coalesced into it
  // mid-flight deserve their own replay.
  Status st = Status::ok();
  for (;;) {
    auto pick = log_.end();
    for (auto it = log_.begin(); it != log_.end(); ++it) {
      if (it->second.parked && (pick == log_.end() || it->second.seq < pick->second.seq)) {
        pick = it;
      }
    }
    if (pick == log_.end()) break;
    const LogKey key = pick->first;
    const nfs::Fh fh = pick->second.fh;
    const blob::BlobRef data = pick->second.data;
    const u64 seq = pick->second.seq;
    pick->second.sent = seq;
    auto res = upstream_as_<nfs::WriteRes>(
        p, Proc::kWrite, write_args(fh, key.second, data, nfs::StableHow::kFileSync),
        session_cred_);
    if (!res.is_ok() || (*res)->status != NfsStat::kOk) {
      settle_(key, seq, Settle::kPark);
      st = res.is_ok() ? err((*res)->status, "replay write") : res.status();
      break;
    }
    replayed_writebacks_.inc();
    settle_(key, seq, Settle::kDone);
  }
  replaying_ = false;
  if (st.is_ok()) {
    // Nothing is parked any more: the outage is over.
    upstream_down_ = false;
    last_recovery_time_ = p.now() - outage_started_;
    outage_total_ += last_recovery_time_;
  }
  return st;
}

std::optional<blob::BlobRef> GvfsProxy::staged_block_(u64 file_key, u64 block,
                                                      bool* queued) const {
  // Degraded write-through entries sit at their raw downstream offset, which
  // need not be block-aligned, so the block is assembled from every entry
  // overlapping its byte range, newest stamp last. The iterators collected
  // here are only meaningful while the log holds still; a yield sneaking
  // into this assembly would let a settle erase them mid-sort.
  YieldGuard yield_free(log_epoch_);
  const u64 block_lo = block * fetch_block_;
  const u64 block_hi = block_lo + fetch_block_;
  using Iter = std::map<LogKey, PendingWrite>::const_iterator;
  Iter only = log_.end();
  std::vector<Iter> hits;  // allocated only when several entries overlap
  const u64 first = block_lo + 1 > max_staged_len_ ? block_lo + 1 - max_staged_len_ : 0;
  for (auto it = log_.lower_bound({file_key, first});
       it != log_.end() && it->first.first == file_key && it->first.second < block_hi;
       ++it) {
    const u64 n = it->second.data ? it->second.data->size() : 0;
    if (n == 0 || it->first.second + n <= block_lo) continue;
    if (queued != nullptr && !it->second.parked) *queued = true;
    if (only == log_.end()) {
      only = it;
      continue;
    }
    if (hits.empty()) hits.push_back(only);
    hits.push_back(it);
  }
  if (only == log_.end()) return std::nullopt;
  // The common case: one block-aligned write-back entry is the block.
  if (hits.empty() && only->first.second == block_lo &&
      only->second.data->size() <= fetch_block_) {
    return only->second.data;
  }
  if (hits.empty()) hits.push_back(only);
  std::sort(hits.begin(), hits.end(),
            [](Iter a, Iter b) { return a->second.seq < b->second.seq; });
  blob::ExtentStore assembled;
  assembled.truncate(fetch_block_);
  u64 covered_hi = 0;
  for (Iter it : hits) {
    const u64 off = it->first.second;
    const blob::BlobRef& data = it->second.data;
    const u64 lo = std::max(block_lo, off);
    const u64 hi = std::min(block_hi, off + data->size());
    assembled.write_blob(lo - block_lo, data, lo - off, hi - lo);
    covered_hi = std::max(covered_hi, hi - block_lo);
  }
  // Bytes inside the block but not covered by any staged write read as
  // zeros: the cache dropped the block when the write was staged, so this
  // is the best available degraded answer (documented best-effort).
  assembled.truncate(covered_hi);
  return assembled.snapshot();
}

void GvfsProxy::drop_staged_(u64 file_key, u64 size) {
  if (block_cache_ != nullptr) {
    // Frames wholly past the new EOF go unwritten; the one straddling it is
    // pushed whole (the truncate that follows cuts its tail).
    block_cache_->invalidate_file(file_key,
                                  (size + fetch_block_ - 1) / fetch_block_);
  }
  for (auto it = log_.lower_bound({file_key, 0});
       it != log_.end() && it->first.first == file_key;) {
    PendingWrite& w = it->second;
    const u64 off = it->first.second;
    if (off >= size && w.sent == 0) {
      it = log_.erase(it);
      log_epoch_.bump();
      continue;
    }
    if (off < size && w.data && off + w.data->size() > size) {
      w.data = std::make_shared<blob::SliceBlob>(w.data, 0, size - off);
    }
    ++it;
  }
}

u64 GvfsProxy::meta_files_loaded() const {
  auto loaded = [](const auto& e) { return e.second.meta.has_value(); };
  // gvfs-lint: allow(unordered-iteration) commutative count; order cannot escape
  return static_cast<u64>(std::count_if(files_.begin(), files_.end(), loaded));
}

std::size_t GvfsProxy::held_lease_count() const {
  auto held = [](const auto& e) { return e.second.lease.has_value(); };
  // gvfs-lint: allow(unordered-iteration) commutative count; order cannot escape
  return static_cast<std::size_t>(std::count_if(files_.begin(), files_.end(), held));
}

u64 GvfsProxy::pending_writebacks() const {
  return static_cast<u64>(std::count_if(log_.begin(), log_.end(),
                                        [](const auto& e) { return e.second.parked; }));
}

u64 GvfsProxy::pending_flush_blocks() const {
  return static_cast<u64>(std::count_if(log_.begin(), log_.end(),
                                        [](const auto& e) { return e.second.queued(); }));
}

// ---------------------------------------------------------- degraded mode --

void GvfsProxy::note_upstream_timeout_(SimTime now) {
  if (!cfg_.degraded_mode) return;
  if (!upstream_down_) {
    upstream_down_ = true;
    outage_started_ = now;
  }
}

std::optional<vfs::Attr> GvfsProxy::stale_attr_(const nfs::Fh& fh) {
  FileState* f = find_(fh.key());
  if (f == nullptr || !f->attr) return std::nullopt;
  f->attr->lru_tick = ++attr_tick_;
  // Remember that this answer may be a lie: signal_reconnect re-probes every
  // file served stale so a remote change mid-outage cannot linger until the
  // TTL happens to expire.
  if (upstream_down_) f->stale_served = true;
  return f->attr->attr;
}

Status GvfsProxy::revalidate_stale_attrs_(sim::Process& p) {
  std::vector<u64> keys;
  // gvfs-lint: allow(unordered-iteration) keys are sorted right after the scan, before any use
  for (auto& [key, f] : files_) {
    if (!f.stale_served) continue;
    f.stale_served = false;
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  for (u64 k : keys) {
    const FileState& f = files_.at(k);
    const nfs::Fh fh = f.fh;  // copy: the GETATTR below yields
    const u64 old_size = f.attr ? f.attr->attr.size : 0;

    auto gargs = std::make_shared<nfs::GetattrArgs>();
    gargs->fh = fh;
    auto gres = upstream_as_<nfs::GetattrRes>(p, Proc::kGetattr, gargs, session_cred_);
    if (!gres.is_ok()) return gres.status();
    if ((*gres)->status != NfsStat::kOk) {
      forget_(files_.at(k));  // the file vanished during the outage
      continue;
    }
    const vfs::Attr fresh = (*gres)->attr.a;
    attr_revalidations_.inc();
    if (fresh.size < old_size) {
      // A remote truncate happened mid-outage: cached frames and staged
      // sizes describe the pre-outage file. Push any locally dirtied blocks
      // first (last-writer-wins, same promise replay makes), then forget
      // the file; the write-back may have re-extended it, so the next
      // answer comes from a fresh probe.
      GVFS_RETURN_IF_ERROR(write_back_(p, k));
      forget_(files_.at(k));
      continue;
    }
    remember_attr_(fh, fresh, p.now());
  }
  return Status::ok();
}

std::shared_ptr<nfs::LookupRes> GvfsProxy::degraded_lookup_(
    const nfs::LookupArgs& a) {
  // Serve a LOOKUP from the namespace learned before the outage (linear
  // scan: the learned set is small — files the session actually touched).
  // If a name was relearned under a new handle there can be two matches;
  // pick the smallest key so the answer never depends on hash order.
  const FileState* best = nullptr;
  // gvfs-lint: allow(unordered-iteration) commutative min-key scan; order cannot escape
  for (const auto& [key, f] : files_) {
    if (!f.parent || f.parent->dir.key() != a.dir.key() || f.parent->name != a.name) {
      continue;
    }
    if (best == nullptr || key < best->fh.key()) best = &f;
  }
  if (best == nullptr) return nullptr;
  auto res = std::make_shared<nfs::LookupRes>();
  res->fh = best->fh;
  if (auto attr = stale_attr_(best->fh)) res->obj_attr.attr = *attr;
  return res;
}

// ------------------------------------------------------------------ leases --

Status GvfsProxy::ensure_lease_(sim::Process& p, const Fh& fh, nfs::LeaseMode mode,
                                const rpc::Credential& cred) {
  if (!cfg_.enable_leases || lease_unsupported_) return Status::ok();
  if (const FileState* f = find_(fh.key());
      f != nullptr && f->lease && f->lease->expiry > p.now() &&
      (f->lease->mode == nfs::LeaseMode::kWrite || f->lease->mode == mode)) {
    return Status::ok();
  }
  for (u32 attempt = 0; attempt <= kLeaseMaxRetries; ++attempt) {
    auto largs = std::make_shared<nfs::LeaseArgs>();
    largs->fh = fh;
    largs->client_id = cfg_.lease_client_id;
    largs->mode = mode;
    auto lres = upstream_as_<nfs::LeaseRes>(p, Proc::kLeaseAcquire, largs, cred);
    if (!lres.is_ok()) {
      lease_acquire_failures_.inc();
      return lres.status();
    }
    if ((*lres)->status == NfsStat::kNotSupported) {
      // Origin not lease-aware (or toggled off): stand down for the session.
      lease_unsupported_ = true;
      return Status::ok();
    }
    if ((*lres)->status != NfsStat::kOk) {
      lease_acquire_failures_.inc();
      return err((*lres)->status, "lease acquire");
    }
    if ((*lres)->granted) {
      file_(fh).lease = HeldLease{mode, (*lres)->expiry};
      leases_acquired_.inc();
      if (tracer_) tracer_->annotate(&p, cfg_.name, "lease_granted", p.now());
      return Status::ok();
    }
    // Conflict: the server is recalling the holder (NFS4ERR_DELAY shape).
    // Back off and retry; the retry horizon outlasts the server's lease
    // duration, so a partitioned holder lapses before we give up.
    lease_acquire_retries_.inc();
    p.delay(kLeaseRetryDelay);
  }
  lease_acquire_failures_.inc();
  return err(ErrCode::kTimeout, "lease acquire: conflict never cleared");
}

rpc::RpcReply GvfsProxy::handle_recall_(sim::Process& p, const rpc::RpcCall& call) {
  auto res = std::make_shared<nfs::RecallRes>();
  if (static_cast<nfs::CallbackProc>(call.proc) != nfs::CallbackProc::kRecall) {
    return rpc::make_reply(call, res);  // kNull ping
  }
  auto a = rpc::message_cast<nfs::RecallArgs>(call.args);
  if (!a) return rpc::make_error_reply(call, err(ErrCode::kBadXdr, "recall args"));
  u64 key = a->fh.key();
  recalls_served_.inc();
  if (tracer_) tracer_->annotate(&p, cfg_.name, "lease_recall", p.now());

  // Flush the file's dirty state through the existing write-back machinery,
  // then forget the file: the contender may write the moment our reply
  // lands, so anything kept here would go stale silently.
  const bool flushed = write_back_(p, key).is_ok();
  FileState& f = file_(a->fh);
  forget_(f);
  f.lease.reset();
  res->status = NfsStat::kOk;
  res->flushed = flushed;
  return rpc::make_reply(call, res);
}

// ---------------------------------------------------------------- handlers --

rpc::RpcReply GvfsProxy::handle(sim::Process& p, const rpc::RpcCall& call) {
  calls_received_.inc();
  p.delay(kPerCallCpu);
  // Server-initiated lease recalls ride the callback program down the same
  // tunnel; they carry the server's identity, not a client credential, so
  // they bypass the authorizer / cred-mapping that guards client traffic.
  if (call.prog == nfs::kLeaseCallbackProgram) return handle_recall_(p, call);
  if (authorizer_ && !authorizer_(call.cred)) {
    return rpc::make_error_reply(call, err(ErrCode::kAuthError, "proxy policy"));
  }
  session_cred_ = cred_mapper_ ? cred_mapper_(call.cred) : call.cred;

  if (call.prog != rpc::kNfsProgram) return forward_(p, call);

  switch (static_cast<Proc>(call.proc)) {
    case Proc::kRead: {
      auto a = rpc::message_cast<nfs::ReadArgs>(call.args);
      if (!a) break;
      return handle_read_(p, call, *a);
    }
    case Proc::kWrite: {
      auto a = rpc::message_cast<nfs::WriteArgs>(call.args);
      if (!a) break;
      return handle_write_(p, call, *a);
    }
    case Proc::kGetattr: {
      auto a = rpc::message_cast<nfs::GetattrArgs>(call.args);
      if (!a) break;
      return handle_getattr_(p, call, *a);
    }
    case Proc::kCommit: {
      auto a = rpc::message_cast<nfs::CommitArgs>(call.args);
      if (!a) break;
      return handle_commit_(p, call, *a);
    }
    case Proc::kSetattr: {
      auto a = rpc::message_cast<nfs::SetattrArgs>(call.args);
      if (!a) break;
      return handle_setattr_(p, call, *a);
    }
    case Proc::kLookup: {
      // Forward, but learn the namespace so meta-data probing can find the
      // companion file later.
      auto a = rpc::message_cast<nfs::LookupArgs>(call.args);
      if (a && cfg_.degraded_mode && upstream_down_) {
        if (auto hit = degraded_lookup_(*a)) return rpc::make_reply(call, hit);
      }
      rpc::RpcReply reply = forward_(p, call);
      if (a && reply.status.is_ok()) {
        if (auto res = rpc::message_cast<nfs::LookupRes>(reply.result);
            res && res->status == NfsStat::kOk) {
          file_(res->fh).parent = ParentLink{a->dir, a->name};
          if (res->obj_attr.attr) remember_attr_(res->fh, *res->obj_attr.attr, p.now());
        }
      } else if (a && cfg_.degraded_mode &&
                 reply.status.code() == ErrCode::kTimeout) {
        if (auto hit = degraded_lookup_(*a)) return rpc::make_reply(call, hit);
      }
      return reply;
    }
    case Proc::kCreate: {
      auto a = rpc::message_cast<nfs::CreateArgs>(call.args);
      rpc::RpcReply reply = forward_(p, call);
      if (a && reply.status.is_ok()) {
        if (auto res = rpc::message_cast<nfs::CreateRes>(reply.result);
            res && res->status == NfsStat::kOk) {
          file_(res->fh).parent = ParentLink{a->dir, a->name};
          if (res->attr.attr) remember_attr_(res->fh, *res->attr.attr, p.now());
        }
      }
      return reply;
    }
    default:
      break;
  }
  return forward_(p, call);
}

rpc::RpcReply GvfsProxy::handle_read_(sim::Process& p, const rpc::RpcCall& call,
                                      const nfs::ReadArgs& a) {
  // gvfs-lint: allow(yield-stale-ref) session_cred_ is a plain member, not a container element; its address is stable for the proxy's lifetime
  const rpc::Credential& cred = session_cred_;
  file_(a.fh);  // from here on the block cache's write-back can find the handle
  if (cfg_.enable_leases && !upstream_down_) {
    // Best-effort read lease: holding one means a future writer's recall
    // reaches us before our cached copies go stale. Failure (conflict that
    // never cleared, or a transport error) still serves the read — coherence
    // then falls back to the attr TTL, exactly the lease-free behavior.
    (void)ensure_lease_(p, a.fh, nfs::LeaseMode::kRead, cred);
  }
  const meta::MetaFile* meta = meta_for_(p, a.fh, cred);

  // ---- file-based channel (compress/copy/uncompress/read-locally) ---------
  if (meta != nullptr && meta->wants_file_channel() && file_channel_ != nullptr &&
      file_cache_ != nullptr) {
    u64 key = a.fh.key();
    if (!file_cache_->contains(key)) {
      // The fetched copy would shadow bytes staged for the file: push them
      // first. Only then: in async mode write_back_ drains every file.
      Status st = has_staged_(key) ? sync_file_(p, key) : Status::ok();
      if (st.is_ok()) st = file_channel_->fetch_into_cache(p, a.fh.fileid, key);
      if (!st.is_ok()) {
        GVFS_WARN("proxy") << cfg_.name << ": file channel failed ("
                           << st.to_string() << "), falling back to blocks";
      }
    }
    if (file_cache_->contains(key)) {
      u64 size = file_cache_->cached_size(key).value_or(0);
      auto res = std::make_shared<nfs::ReadRes>();
      u64 n = a.offset >= size ? 0 : std::min<u64>(a.count, size - a.offset);
      auto data = file_cache_->read(p, key, a.offset, n);
      file_hits_.inc();
      if (tracer_) tracer_->annotate(&p, cfg_.name, "file_cache_hit", p.now());
      res->count = static_cast<u32>(n);
      res->eof = a.offset + n >= size;
      res->data = data && *data ? *data : blob::zero_ref(0);
      if (auto attr = cached_attr_(a.fh, p.now())) {
        attr->size = std::max(attr->size, size);
        res->attr.attr = *attr;
      }
      return rpc::make_reply(call, res);
    }
    // fetch_into_cache() yielded on the file channel: a concurrent
    // drop_soft_state() frees the MetaFile this pointer aimed at. Re-acquire
    // — a no-op (cache hit, no yield) unless the table really was dropped.
    meta = meta_for_(p, a.fh, cred);
  }

  // ---- zero-block filtering ------------------------------------------------
  if (meta != nullptr && !file_(a.fh).meta_stale && meta->has_zero_map() &&
      meta->range_is_zero(a.offset, a.count)) {
    zero_filtered_.inc();
    if (tracer_) tracer_->annotate(&p, cfg_.name, "zero_filtered", p.now());
    u64 size = meta->file_size();
    auto res = std::make_shared<nfs::ReadRes>();
    u64 n = a.offset >= size ? 0 : std::min<u64>(a.count, size - a.offset);
    res->count = static_cast<u32>(n);
    res->eof = a.offset + n >= size;
    res->data = blob::zero_ref(n);
    if (auto attr = cached_attr_(a.fh, p.now())) res->attr.attr = *attr;
    return rpc::make_reply(call, res);
  }

  // ---- block cache ----------------------------------------------------------
  if (block_cache_ == nullptr) return forward_(p, call);

  std::optional<vfs::Attr> attr = cached_attr_(a.fh, p.now());
  if (!attr && cfg_.degraded_mode && upstream_down_) {
    // Session consistency: an expired attribute beats failing the READ
    // while the upstream is unreachable.
    attr = stale_attr_(a.fh);
  }
  if (!attr) {
    auto gargs = std::make_shared<nfs::GetattrArgs>();
    gargs->fh = a.fh;
    auto gres = upstream_as_<nfs::GetattrRes>(p, Proc::kGetattr, gargs, cred);
    if (!gres.is_ok()) {
      if (cfg_.degraded_mode && gres.code() == ErrCode::kTimeout) {
        attr = stale_attr_(a.fh);  // serve what we knew before the outage
      }
      if (!attr) return rpc::make_error_reply(call, gres.status());
    } else {
      if ((*gres)->status != NfsStat::kOk) {
        auto res = std::make_shared<nfs::ReadRes>();
        res->status = (*gres)->status;
        return rpc::make_reply(call, res);
      }
      remember_attr_(a.fh, (*gres)->attr.a, p.now());
      attr = (*gres)->attr.a;
    }
  }
  u64 size = effective_size_(a.fh, attr);
  u64 n = a.offset >= size ? 0 : std::min<u64>(a.count, size - a.offset);

  auto res = std::make_shared<nfs::ReadRes>();
  if (n > 0) {
    u64 first = a.offset / fetch_block_;
    u64 last = (a.offset + n - 1) / fetch_block_;
    if (first == last) {
      // Single-block read: reference the cached block directly (whole-block
      // reads, the common case) or slice it — no extent map, no copy.
      auto blockr = get_block_(p, a.fh, first, cred);
      if (!blockr.is_ok()) return rpc::make_error_reply(call, blockr.status());
      const blob::BlobRef& data = *blockr;
      u64 block_start = first * fetch_block_;
      u64 off_in_block = a.offset - block_start;
      if (data && data->size() >= off_in_block + n) {
        res->data = (off_in_block == 0 && data->size() == n)
                        ? data
                        : std::make_shared<blob::SliceBlob>(data, off_in_block, n);
      } else {
        // Short block (read past cached tail): zero-fill the remainder.
        std::vector<blob::Piece> pieces;
        u64 hi = std::min(block_start + (data ? data->size() : 0), a.offset + n);
        if (a.offset < hi) pieces.push_back({0, hi - a.offset, data, off_in_block});
        res->data = blob::make_pieces(std::move(pieces), n);
      }
    } else {
      std::vector<blob::Piece> pieces;
      pieces.reserve(last - first + 1);
      for (u64 b = first; b <= last; ++b) {
        auto blockr = get_block_(p, a.fh, b, cred);
        if (!blockr.is_ok()) return rpc::make_error_reply(call, blockr.status());
        blob::BlobRef& data = *blockr;
        u64 block_start = b * fetch_block_;
        u64 lo = std::max(block_start, a.offset);
        u64 hi = std::min(block_start + (data ? data->size() : 0), a.offset + n);
        if (lo < hi) pieces.push_back({lo - a.offset, hi - lo, std::move(data), lo - block_start});
      }
      res->data = blob::make_pieces(std::move(pieces), n);
    }
    maybe_prefetch_(p, a.fh, last, size, cred);
  } else {
    res->data = blob::zero_ref(0);
  }
  res->count = static_cast<u32>(n);
  res->eof = a.offset + n >= size;
  if (attr) {
    vfs::Attr out = *attr;
    out.size = size;
    res->attr.attr = out;
  }
  return rpc::make_reply(call, res);
}

rpc::RpcReply GvfsProxy::handle_write_(sim::Process& p, const rpc::RpcCall& call,
                                       const nfs::WriteArgs& a) {
  // gvfs-lint: allow(yield-stale-ref) session_cred_ is a plain member, not a container element; its address is stable for the proxy's lifetime
  const rpc::Credential& cred = session_cred_;
  const u64 key = a.fh.key();
  // The zero map and fingerprint table no longer vouch for the file's bytes.
  file_(a.fh).meta_stale = true;

  if (cfg_.enable_leases) {
    Status ls = ensure_lease_(p, a.fh, nfs::LeaseMode::kWrite, cred);
    if (!ls.is_ok()) {
      // During a partition degraded mode still absorbs/queues the write —
      // the replay path re-acquires the lease (fencing) before anything
      // heads upstream. Outside degraded mode a write without a lease would
      // silently break the multi-writer contract, so it fails loudly.
      if (!(cfg_.degraded_mode &&
            (ls.code() == ErrCode::kTimeout || upstream_down_))) {
        return rpc::make_error_reply(call, ls);
      }
    }
  }

  // Writes to a file served by the file channel update the whole-file cache
  // (write-back uploads it later as compress+SCP).
  if (file_cache_ != nullptr && file_cache_->contains(key)) {
    Status st = file_cache_->write(p, key, a.offset, a.data);
    if (!st.is_ok()) return rpc::make_error_reply(call, st);
    writes_absorbed_.inc();
    if (tracer_) tracer_->annotate(&p, cfg_.name, "write_absorbed", p.now());
    const u64 staged =
        std::max(effective_size_(a.fh, cached_attr_(a.fh, p.now())), a.offset + a.count);
    file_(a.fh).staged_size = staged;
    auto res = std::make_shared<nfs::WriteRes>();
    res->count = a.count;
    res->committed = nfs::StableHow::kFileSync;
    if (auto attr = cached_attr_(a.fh, p.now())) {
      attr->size = staged;
      attr->mtime = p.now();
      res->attr.attr = *attr;
    }
    return rpc::make_reply(call, res);
  }

  if (block_cache_ == nullptr) return forward_(p, call);

  if (block_cache_->config().policy == cache::WritePolicy::kWriteThrough) {
    // Forward synchronously; drop overlapping cached blocks so the next read
    // refetches fresh data (coherence without dirty state).
    rpc::RpcReply reply = forward_(p, call);
    if (reply.status.is_ok()) {
      if (auto res = rpc::message_cast<nfs::WriteRes>(reply.result);
          res && res->status == NfsStat::kOk) {
        block_cache_->invalidate_file(key);
        if (res->attr.attr) remember_attr_(a.fh, *res->attr.attr, p.now());
        file_(a.fh).staged_size = 0;
      }
    } else if (cfg_.degraded_mode && reply.status.code() == ErrCode::kTimeout) {
      // Degraded write-through: acknowledge locally, park for replay.
      stage_(a.fh, {key, a.offset}, a.data, /*parked=*/true);
      block_cache_->invalidate_file(key);
      file_(a.fh).staged_size =
          std::max(effective_size_(a.fh, cached_attr_(a.fh, p.now())),
                   a.offset + a.count);
      auto res = std::make_shared<nfs::WriteRes>();
      res->count = a.count;
      res->committed = nfs::StableHow::kFileSync;
      return rpc::make_reply(call, res);
    }
    return reply;
  }

  // ---- write-back: absorb locally ------------------------------------------
  std::optional<vfs::Attr> attr = cached_attr_(a.fh, p.now());
  u64 known = effective_size_(a.fh, attr);
  u64 end = a.offset + a.count;
  u64 first = a.offset / fetch_block_;
  u64 last = a.count > 0 ? (end - 1) / fetch_block_ : first;
  for (u64 b = first; b <= last; ++b) {
    u64 block_start = b * fetch_block_;
    u64 lo = std::max(block_start, a.offset);
    u64 hi = std::min(block_start + fetch_block_, end);
    auto slice = std::make_shared<blob::SliceBlob>(a.data, lo - a.offset, hi - lo);
    cache::BlockId id{key, b};
    bool full = lo == block_start && hi - lo == fetch_block_;
    if (full) {
      Status st = block_cache_->insert(p, id, slice, /*dirty=*/true);
      if (!st.is_ok()) return rpc::make_error_reply(call, st);
      continue;
    }
    if (!block_cache_->contains(id) && block_start < known) {
      // Partial write into an existing block: fetch-and-merge.
      auto blockr = get_block_(p, a.fh, b, cred);
      if (!blockr.is_ok()) return rpc::make_error_reply(call, blockr.status());
    }
    if (block_cache_->contains(id)) {
      auto merged = block_cache_->merge(p, id, lo - block_start, slice);
      if (!merged.is_ok()) return rpc::make_error_reply(call, merged.status());
    } else {
      // New tail block: zeros up to the write, then the data.
      blob::ExtentStore compose;
      compose.truncate(hi - block_start);
      compose.write_blob(lo - block_start, slice, 0, hi - lo);
      Status st = block_cache_->insert(p, id, compose.snapshot(), /*dirty=*/true);
      if (!st.is_ok()) return rpc::make_error_reply(call, st);
    }
  }
  const u64 staged = std::max(known, end);
  file_(a.fh).staged_size = staged;
  writes_absorbed_.inc();
  if (tracer_) tracer_->annotate(&p, cfg_.name, "write_absorbed", p.now());

  auto res = std::make_shared<nfs::WriteRes>();
  res->count = a.count;
  res->committed = nfs::StableHow::kFileSync;
  if (attr) {
    vfs::Attr out = *attr;
    out.size = staged;
    out.mtime = p.now();
    remember_attr_(a.fh, out, p.now());
    res->attr.attr = out;
  }
  return rpc::make_reply(call, res);
}

rpc::RpcReply GvfsProxy::handle_getattr_(sim::Process& p, const rpc::RpcCall& call,
                                         const nfs::GetattrArgs& a) {
  file_(a.fh);
  std::optional<vfs::Attr> attr = cached_attr_(a.fh, p.now());
  if (!attr && cfg_.degraded_mode && upstream_down_) attr = stale_attr_(a.fh);
  if (!attr) {
    rpc::RpcReply reply = forward_(p, call);
    if (!reply.status.is_ok()) {
      if (cfg_.degraded_mode && reply.status.code() == ErrCode::kTimeout) {
        if (auto stale = stale_attr_(a.fh)) {
          auto res = std::make_shared<nfs::GetattrRes>();
          res->attr.a = *stale;
          res->attr.a.size = effective_size_(a.fh, stale);
          return rpc::make_reply(call, res);
        }
      }
      return reply;
    }
    auto res = rpc::message_cast<nfs::GetattrRes>(reply.result);
    if (!res || res->status != NfsStat::kOk) return reply;
    vfs::Attr out = res->attr.a;
    remember_attr_(a.fh, out, p.now());
    u64 size = effective_size_(a.fh, out);
    if (size != out.size) {
      auto patched = std::make_shared<nfs::GetattrRes>(*res);
      patched->attr.a.size = size;
      return rpc::make_reply(call, patched);
    }
    return reply;
  }
  auto res = std::make_shared<nfs::GetattrRes>();
  res->attr.a = *attr;
  res->attr.a.size = effective_size_(a.fh, attr);
  return rpc::make_reply(call, res);
}

rpc::RpcReply GvfsProxy::handle_commit_(sim::Process& p, const rpc::RpcCall& call,
                                        const nfs::CommitArgs& a) {
  bool write_back_mode =
      block_cache_ != nullptr &&
      block_cache_->config().policy == cache::WritePolicy::kWriteBack;
  bool file_cached = file_cache_ != nullptr && file_cache_->contains(a.fh.key());
  if (write_back_mode || file_cached) {
    // Write-back mode acknowledges COMMIT locally; consistency comes from
    // middleware signals (§3.2.1).
    auto res = std::make_shared<nfs::CommitRes>();
    if (auto attr = cached_attr_(a.fh, p.now())) res->attr.attr = *attr;
    res->verifier = 0x67766673ULL;
    return rpc::make_reply(call, res);
  }
  rpc::RpcReply reply = forward_(p, call);
  if (cfg_.degraded_mode && reply.status.code() == ErrCode::kTimeout) {
    // The data this COMMIT covers is parked in the log; acknowledging it
    // locally is the same promise write-back mode makes (replayed durable on
    // reconnect).
    auto res = std::make_shared<nfs::CommitRes>();
    if (auto attr = stale_attr_(a.fh)) res->attr.attr = *attr;
    res->verifier = 0x67766673ULL;
    return rpc::make_reply(call, res);
  }
  return reply;
}

rpc::RpcReply GvfsProxy::handle_setattr_(sim::Process& p, const rpc::RpcCall& call,
                                         const nfs::SetattrArgs& a) {
  u64 key = a.fh.key();
  if (a.sattr.sa.set_size) {
    // Truncation. Staged bytes below the new EOF were acknowledged, so they
    // reach the server first; staged bytes at or past it must not land after
    // the truncate, so sends already carrying them are waited out and the
    // rest dropped. Only once nothing of the file is staged or in flight is
    // it forgotten.
    const u64 size = a.sattr.sa.size;
    drop_staged_(key, size);
    Status st = sync_file_(p, key);
    if (!st.is_ok()) return rpc::make_error_reply(call, st);
    drop_staged_(key, size);
    forget_(file_(a.fh));
  }
  rpc::RpcReply reply = forward_(p, call);
  if (reply.status.is_ok()) {
    if (auto res = rpc::message_cast<nfs::SetattrRes>(reply.result);
        res && res->status == NfsStat::kOk && res->attr.attr) {
      remember_attr_(a.fh, *res->attr.attr, p.now());
    }
  }
  return reply;
}

// ------------------------------------------------------ middleware signals --

Status GvfsProxy::signal_reconnect(sim::Process& p) {
  GVFS_RETURN_IF_ERROR(replay_parked_(p));
  return revalidate_stale_attrs_(p);
}

Status GvfsProxy::signal_write_back(sim::Process& p) { return write_back_(p); }

void GvfsProxy::drop_soft_state() {
  // gvfs-lint: allow(unordered-iteration) each record is reset alone; order cannot escape
  for (auto& entry : files_) {
    FileState& f = entry.second;
    f.attr.reset();
    f.stale_served = false;
    f.staged_size = 0;
    f.meta_probed = false;
    f.meta.reset();
    // A stale ahead_until/run would make the refill guard suppress
    // read-ahead on the next cold pass over the same file.
    f.profile = {};
  }
  attr_cache_gauge_.set(0);
}

Status GvfsProxy::signal_flush(sim::Process& p) {
  GVFS_RETURN_IF_ERROR(signal_write_back(p));
  if (block_cache_ != nullptr) block_cache_->invalidate_all();
  if (file_cache_ != nullptr) file_cache_->invalidate_all();
  drop_soft_state();
  return Status::ok();
}

}  // namespace gvfs::proxy
