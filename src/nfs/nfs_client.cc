#include "nfs/nfs_client.h"

#include <algorithm>

#include "blob/extent_store.h"
#include "common/log.h"
#include "common/strings.h"

namespace gvfs::nfs {

NfsClient::NfsClient(rpc::RpcChannel& channel, rpc::Credential cred,
                     NfsClientConfig cfg)
    : channel_(channel),
      cred_(std::move(cred)),
      cfg_(cfg),
      pages_(cfg.buffer_cache_bytes, kPageSize) {
  // Dirty page evicted under memory pressure: asynchronous kernel writeback
  // becomes a synchronous unstable WRITE in our blocking model.
  pages_.set_writeback([this](sim::Process& p, u64 file_key, u64 page,
                              const blob::BlobRef& data) {
    auto it = key_to_fh_.find(file_key);
    if (it == key_to_fh_.end() || !data || data->size() == 0) return;
    auto args = std::make_shared<WriteArgs>();
    args->fh = it->second;
    args->offset = page * kPageSize;
    args->count = static_cast<u32>(data->size());
    args->stable = StableHow::kUnstable;
    args->data = data;
    bytes_written_wire_.inc(args->count);
    (void)call_(p, Proc::kWrite, args);
  });
}

// ----------------------------------------------------------- RPC plumbing --

Result<rpc::MessagePtr> NfsClient::call_(sim::Process& p, Proc proc,
                                         rpc::MessagePtr args) {
  rpc::RpcCall c;
  c.xid = next_xid_++;
  c.prog = rpc::kNfsProgram;
  c.vers = rpc::kNfsVersion3;
  c.proc = static_cast<u32>(proc);
  c.cred = cred_;
  c.args = std::move(args);
  rpcs_sent_.inc();
  ++proc_counts_[c.proc];  // every Proc is below kNfsProcs.size()
  if (tracer_) tracer_->begin(&p, c.xid, c.proc, proc_name(proc), p.now());
  rpc::RpcReply reply = channel_.call(p, c);
  if (!reply.status.is_ok()) {
    if (tracer_) tracer_->end(&p, p.now(), false);
    return reply.status;
  }
  if (reply.xid != c.xid) {
    // A reply that doesn't match the issued call must never be accepted —
    // it belongs to some other transaction (stale retransmit, crossed
    // wires). Real clients drop the datagram; our synchronous model surfaces
    // the rejection.
    xid_mismatches_.inc();
    if (tracer_) tracer_->end(&p, p.now(), false);
    return err(ErrCode::kBadXdr, "reply xid mismatch");
  }
  if (tracer_) tracer_->end(&p, p.now(), true);
  return reply.result;
}

template <typename Res>
Result<std::shared_ptr<const Res>> NfsClient::call_as_(sim::Process& p, Proc proc,
                                                       rpc::MessagePtr args) {
  GVFS_ASSIGN_OR_RETURN(rpc::MessagePtr m, call_(p, proc, std::move(args)));
  auto res = rpc::message_cast<Res>(m);
  if (!res) return err(ErrCode::kBadXdr, "unexpected result type");
  return res;
}

u64 NfsClient::rpcs_sent(Proc proc) const {
  const auto n = static_cast<u32>(proc);
  return n < proc_counts_.size() ? proc_counts_[n] : 0;
}

void NfsClient::drop_caches() {
  pages_.drop_all();
  attr_cache_.clear();
  dentry_cache_.clear();
  path_cache_.clear();
}

// ------------------------------------------------------------------ mount --

Status NfsClient::mount(sim::Process& p, const std::string& export_path) {
  auto margs = std::make_shared<MountArgs>();
  margs->dirpath = export_path;
  rpc::RpcCall c;
  c.xid = next_xid_++;
  c.prog = rpc::kMountProgram;
  c.vers = rpc::kMountVersion3;
  c.proc = static_cast<u32>(MountProc::kMnt);
  c.cred = cred_;
  c.args = margs;
  rpcs_sent_.inc();
  if (tracer_) tracer_->begin(&p, c.xid, c.proc, "MOUNT", p.now());
  rpc::RpcReply reply = channel_.call(p, c);
  if (tracer_) tracer_->end(&p, p.now(), reply.status.is_ok());
  if (!reply.status.is_ok()) return reply.status;
  if (reply.xid != c.xid) {
    xid_mismatches_.inc();
    return err(ErrCode::kBadXdr, "mount reply xid mismatch");
  }
  auto res = rpc::message_cast<MountRes>(reply.result);
  if (!res) return err(ErrCode::kBadXdr, "mount result");
  if (res->status != NfsStat::kOk) return err(res->status, "mount failed");
  root_ = res->root;

  // Negotiate transfer sizes.
  auto fsinfo_args = std::make_shared<GetattrArgs>();
  fsinfo_args->fh = root_;
  auto fsinfo = call_as_<FsinfoRes>(p, Proc::kFsinfo, fsinfo_args);
  if (fsinfo.is_ok() && (*fsinfo)->status == NfsStat::kOk) {
    cfg_.rsize = std::min(cfg_.rsize, (*fsinfo)->rtmax);
    cfg_.wsize = std::min(cfg_.wsize, (*fsinfo)->wtmax);
  }
  return Status::ok();
}

// ------------------------------------------------------------- resolution --

void NfsClient::cache_attr_(const Fh& fh, const vfs::Attr& a, sim::Process& p) {
  attr_cache_[fh.key()] = CachedAttr{a, p.now() + cfg_.attr_cache_ttl};
  key_to_fh_[fh.key()] = fh;
}

Result<vfs::Attr> NfsClient::getattr_(sim::Process& p, const Fh& fh) {
  auto it = attr_cache_.find(fh.key());
  if (it != attr_cache_.end() && it->second.expires > p.now()) {
    return it->second.attr;
  }
  auto args = std::make_shared<GetattrArgs>();
  args->fh = fh;
  GVFS_ASSIGN_OR_RETURN(auto res, call_as_<GetattrRes>(p, Proc::kGetattr, args));
  if (res->status != NfsStat::kOk) return err(res->status, "getattr");
  cache_attr_(fh, res->attr.a, p);
  return res->attr.a;
}

Result<Fh> NfsClient::lookup_(sim::Process& p, const Fh& dir, const std::string& name) {
  std::string key = std::to_string(dir.key()) + "/" + name;
  auto it = dentry_cache_.find(key);
  if (it != dentry_cache_.end()) return it->second;
  auto args = std::make_shared<LookupArgs>();
  args->dir = dir;
  args->name = name;
  GVFS_ASSIGN_OR_RETURN(auto res, call_as_<LookupRes>(p, Proc::kLookup, args));
  if (res->status != NfsStat::kOk) return err(res->status, name);
  dentry_cache_[key] = res->fh;
  if (res->obj_attr.attr) cache_attr_(res->fh, *res->obj_attr.attr, p);
  key_to_fh_[res->fh.key()] = res->fh;
  return res->fh;
}

Result<Fh> NfsClient::resolve_(sim::Process& p, const std::string& path) {
  if (!mounted()) return err(ErrCode::kInval, "not mounted");
  auto hit = path_cache_.find(path);
  if (hit != path_cache_.end()) return hit->second;
  Fh cur = root_;
  for (const std::string& part : split(path, '/')) {
    if (part.empty() || part == ".") continue;
    GVFS_ASSIGN_OR_RETURN(cur, lookup_(p, cur, part));
  }
  path_cache_[path] = cur;
  return cur;
}

void NfsClient::invalidate_path_(const std::string& path) {
  auto it = path_cache_.find(path);
  if (it != path_cache_.end()) {
    attr_cache_.erase(it->second.key());
    path_cache_.erase(it);
  }
  // Component entry under its parent.
  std::string parent = path_dirname(path);
  auto pit = path_cache_.find(parent);
  if (pit != path_cache_.end()) {
    dentry_cache_.erase(std::to_string(pit->second.key()) + "/" + path_basename(path));
  } else {
    // Fallback: the name may be cached under any directory; scan.
    std::string suffix = "/" + path_basename(path);
    // gvfs-lint: allow(unordered-iteration) erases every match; the surviving set is order-independent
    for (auto d = dentry_cache_.begin(); d != dentry_cache_.end();) {
      if (ends_with(d->first, suffix)) {
        d = dentry_cache_.erase(d);
      } else {
        ++d;
      }
    }
  }
}

// ------------------------------------------------------------------- stat --

Result<vfs::Attr> NfsClient::stat(sim::Process& p, const std::string& path) {
  p.delay(cfg_.per_op_cpu);
  GVFS_ASSIGN_OR_RETURN(Fh fh, resolve_(p, path));
  GVFS_ASSIGN_OR_RETURN(vfs::Attr a, getattr_(p, fh));
  auto sz = file_sizes_.find(fh.key());
  if (sz != file_sizes_.end()) a.size = std::max(a.size, sz->second);
  return a;
}

// ------------------------------------------------------------------- read --

Status NfsClient::fill_block_(sim::Process& p, const Fh& fh, u64 file_size, u64 page) {
  u64 start = page / std::max<u64>(1, cfg_.rsize / kPageSize) * cfg_.rsize;
  auto args = std::make_shared<ReadArgs>();
  args->fh = fh;
  args->offset = start;
  args->count = static_cast<u32>(
      std::min<u64>(cfg_.rsize, file_size > start ? file_size - start : 1));
  GVFS_ASSIGN_OR_RETURN(auto res, call_as_<ReadRes>(p, Proc::kRead, std::move(args)));
  if (res->status != NfsStat::kOk) return err(res->status, "read");
  bytes_read_wire_.inc(res->count);
  if (res->attr.attr) cache_attr_(fh, *res->attr.attr, p);
  // Split the block into cache pages.
  const u64 key = fh.key();
  for (u64 off = 0; off < res->count; off += kPageSize) {
    u64 n = std::min<u64>(kPageSize, res->count - off);
    blob::BlobRef pg = std::make_shared<blob::SliceBlob>(res->data, off, n);
    pages_.insert(p, key, (start + off) / kPageSize, std::move(pg), /*dirty=*/false);
  }
  return Status::ok();
}

Result<blob::BlobRef> NfsClient::read(sim::Process& p, const std::string& path,
                                      u64 offset, u64 len) {
  p.delay(cfg_.per_op_cpu);
  GVFS_ASSIGN_OR_RETURN(Fh fh, resolve_(p, path));
  GVFS_ASSIGN_OR_RETURN(vfs::Attr a, getattr_(p, fh));
  u64 size = a.size;
  auto sz = file_sizes_.find(fh.key());
  if (sz != file_sizes_.end()) size = std::max(size, sz->second);
  if (offset >= size || len == 0) return blob::BlobRef(blob::zero_ref(0));
  len = std::min<u64>(len, size - offset);

  u64 first = offset / kPageSize;
  u64 last = (offset + len - 1) / kPageSize;
  if (first == last) {
    // Single-page read: return the cached page (or a slice of it) directly
    // instead of copying through an extent map.
    auto cached = pages_.lookup(fh.key(), first);
    if (!cached) {
      GVFS_RETURN_IF_ERROR(fill_block_(p, fh, size, first));
      cached = pages_.lookup(fh.key(), first);
      if (!cached) return err(ErrCode::kIo, "page missing after fill");
    }
    const blob::BlobRef& data = *cached;
    u64 pg_start = first * kPageSize;
    u64 off_in_pg = offset - pg_start;
    if (data->size() >= off_in_pg + len) {
      if (off_in_pg == 0 && data->size() == len) return *cached;
      return blob::BlobRef(std::make_shared<blob::SliceBlob>(data, off_in_pg, len));
    }
    // Short page (sparse tail): fall through to extent assembly below.
  }
  blob::ExtentStore assembled;
  assembled.truncate(len);
  for (u64 pg = first; pg <= last; ++pg) {
    auto cached = pages_.lookup(fh.key(), pg);
    if (!cached) {
      GVFS_RETURN_IF_ERROR(fill_block_(p, fh, size, pg));
      cached = pages_.lookup(fh.key(), pg);
      if (!cached) return err(ErrCode::kIo, "page missing after fill");
    }
    const blob::BlobRef& data = *cached;
    u64 pg_start = pg * kPageSize;
    u64 lo = std::max(pg_start, offset);
    u64 hi = std::min({pg_start + data->size(), offset + len});
    if (lo < hi) {
      assembled.write_blob(lo - offset, data, lo - pg_start, hi - lo);
    }
  }
  return assembled.snapshot();
}

// ------------------------------------------------------------------ write --

Status NfsClient::write(sim::Process& p, const std::string& path, u64 offset,
                        blob::BlobRef data) {
  p.delay(cfg_.per_op_cpu);
  if (!data || data->size() == 0) return Status::ok();
  GVFS_ASSIGN_OR_RETURN(Fh fh, resolve_(p, path));
  GVFS_ASSIGN_OR_RETURN(vfs::Attr a, getattr_(p, fh));
  u64 key = fh.key();
  u64 len = data->size();
  u64 known = std::max(a.size, file_sizes_.count(key) ? file_sizes_[key] : 0);

  u64 first = offset / kPageSize;
  u64 last = (offset + len - 1) / kPageSize;
  for (u64 pg = first; pg <= last; ++pg) {
    u64 pg_start = pg * kPageSize;
    u64 lo = std::max(pg_start, offset);
    u64 hi = std::min(pg_start + kPageSize, offset + len);
    bool full_page = lo == pg_start && (hi - lo == kPageSize);
    blob::BlobRef page_data;
    if (full_page) {
      page_data = std::make_shared<blob::SliceBlob>(data, lo - offset, hi - lo);
    } else {
      // Partial page: read-modify-write against whatever the page holds now
      // (fetch from server if it exists there and isn't cached).
      blob::ExtentStore compose;
      auto cached = pages_.lookup(key, pg);
      if (!cached && pg_start < a.size) {
        GVFS_RETURN_IF_ERROR(fill_block_(p, fh, a.size, pg));
        cached = pages_.lookup(key, pg);
      }
      if (cached && *cached) compose.write_blob(0, *cached, 0, (*cached)->size());
      u64 pg_len = std::max<u64>(hi - pg_start,
                                 std::min<u64>(kPageSize,
                                               known > pg_start ? known - pg_start : 0));
      compose.truncate(std::max<u64>(pg_len, hi - pg_start));
      compose.write_blob(lo - pg_start, data, lo - offset, hi - lo);
      page_data = compose.snapshot();
    }
    pages_.insert(p, key, pg, std::move(page_data), /*dirty=*/true);
  }
  file_sizes_[key] = std::max(known, offset + len);

  // Bounded staging: past the dirty limit the client degrades to synchronous
  // writeback (the write-through behaviour the paper attributes to kernel
  // clients in WANs).
  if (pages_.dirty_pages() * kPageSize > cfg_.dirty_limit_bytes) {
    GVFS_RETURN_IF_ERROR(flush_file_(p, fh));
  }
  return Status::ok();
}

Status NfsClient::flush_file_(sim::Process& p, const Fh& fh) {
  u64 key = fh.key();
  auto dirty = pages_.dirty_pages_of(key);
  if (dirty.empty()) return Status::ok();

  // Coalesce contiguous dirty pages into wsize runs, aligned to wsize block
  // boundaries so downstream caches see whole-block writes (a misaligned run
  // would straddle two proxy cache blocks and force read-merge round trips).
  u64 pages_per_wsize = std::max<u64>(1, cfg_.wsize / kPageSize);
  std::size_t i = 0;
  u64 flushed = 0;
  // Pages are marked clean only if they still hold the data written: another
  // process may re-dirty them while the WRITE yields.
  auto mark_run_clean = [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      pages_.mark_clean(key, dirty[k].first, dirty[k].second);
    }
  };
  while (i < dirty.size()) {
    const std::size_t run_begin = i;
    u64 run_first = dirty[i].first;
    u64 run_limit = (run_first / pages_per_wsize + 1) * pages_per_wsize;
    blob::ExtentStore run;
    u64 run_len = 0;
    while (i < dirty.size() && dirty[i].first == run_first + (i - run_begin) &&
           dirty[i].first < run_limit && run_len + kPageSize <= cfg_.wsize) {
      const blob::BlobRef& d = dirty[i].second;
      u64 n = d ? d->size() : 0;
      if (n > 0) run.write_blob(run_len, d, 0, n);
      run_len += n;
      ++i;
      if (n < kPageSize) break;  // short (EOF) page ends the run
    }
    if (run_len == 0) {
      mark_run_clean(run_begin, i);
      continue;
    }
    auto args = std::make_shared<WriteArgs>();
    args->fh = fh;
    args->offset = run_first * kPageSize;
    args->count = static_cast<u32>(run_len);
    args->stable = StableHow::kUnstable;
    args->data = run.snapshot();
    bytes_written_wire_.inc(run_len);
    GVFS_ASSIGN_OR_RETURN(auto res, call_as_<WriteRes>(p, Proc::kWrite, args));
    if (res->status != NfsStat::kOk) return err(res->status, "write");
    if (res->attr.attr) cache_attr_(fh, *res->attr.attr, p);
    mark_run_clean(run_begin, i);
    flushed += run_len;
  }

  if (flushed > 0) {
    auto cargs = std::make_shared<CommitArgs>();
    cargs->fh = fh;
    cargs->offset = 0;
    cargs->count = 0;
    GVFS_ASSIGN_OR_RETURN(auto cres, call_as_<CommitRes>(p, Proc::kCommit, cargs));
    if (cres->status != NfsStat::kOk) return err(cres->status, "commit");
  }
  return Status::ok();
}

// --------------------------------------------------------------- metadata --

Status NfsClient::create(sim::Process& p, const std::string& path) {
  p.delay(cfg_.per_op_cpu);
  GVFS_ASSIGN_OR_RETURN(Fh dir, resolve_(p, path_dirname(path)));
  auto args = std::make_shared<CreateArgs>();
  args->dir = dir;
  args->name = path_basename(path);
  args->sattr.sa.set_mode = true;
  args->sattr.sa.mode = 0644;
  GVFS_ASSIGN_OR_RETURN(auto res, call_as_<CreateRes>(p, Proc::kCreate, args));
  if (res->status != NfsStat::kOk) return err(res->status, "create");
  path_cache_[path] = res->fh;
  dentry_cache_[std::to_string(dir.key()) + "/" + path_basename(path)] = res->fh;
  if (res->attr.attr) cache_attr_(res->fh, *res->attr.attr, p);
  key_to_fh_[res->fh.key()] = res->fh;
  file_sizes_[res->fh.key()] = 0;
  return Status::ok();
}

Status NfsClient::mkdirs(sim::Process& p, const std::string& path) {
  p.delay(cfg_.per_op_cpu);
  Fh cur = root_;
  std::string sofar;
  for (const std::string& part : split(path, '/')) {
    if (part.empty() || part == ".") continue;
    sofar = join_path(sofar, part);
    Result<Fh> next = lookup_(p, cur, part);
    if (next.is_ok()) {
      cur = *next;
      continue;
    }
    if (next.code() != ErrCode::kNoEnt) return next.status();
    auto args = std::make_shared<MkdirArgs>();
    args->dir = cur;
    args->name = part;
    args->sattr.sa.set_mode = true;
    args->sattr.sa.mode = 0755;
    GVFS_ASSIGN_OR_RETURN(auto res, call_as_<MkdirRes>(p, Proc::kMkdir, args));
    if (res->status != NfsStat::kOk) return err(res->status, "mkdir");
    dentry_cache_[std::to_string(cur.key()) + "/" + part] = res->fh;
    cur = res->fh;
    key_to_fh_[cur.key()] = cur;
  }
  return Status::ok();
}

Status NfsClient::remove(sim::Process& p, const std::string& path) {
  p.delay(cfg_.per_op_cpu);
  GVFS_ASSIGN_OR_RETURN(Fh dir, resolve_(p, path_dirname(path)));
  auto target = resolve_(p, path);
  auto args = std::make_shared<RemoveArgs>();
  args->dir = dir;
  args->name = path_basename(path);
  GVFS_ASSIGN_OR_RETURN(auto res, call_as_<RemoveRes>(p, Proc::kRemove, args));
  if (res->status != NfsStat::kOk) return err(res->status, "remove");
  if (target.is_ok()) {
    pages_.discard_file(target->key());
    file_sizes_.erase(target->key());
  }
  invalidate_path_(path);
  return Status::ok();
}

Status NfsClient::truncate(sim::Process& p, const std::string& path, u64 size) {
  p.delay(cfg_.per_op_cpu);
  GVFS_ASSIGN_OR_RETURN(Fh fh, resolve_(p, path));
  // Staged pages past the new size must not be written back; those below it
  // hold acknowledged writes and stay staged.
  pages_.discard_file(fh.key(), size);
  auto args = std::make_shared<SetattrArgs>();
  args->fh = fh;
  args->sattr.sa.set_size = true;
  args->sattr.sa.size = size;
  GVFS_ASSIGN_OR_RETURN(auto res, call_as_<SetattrRes>(p, Proc::kSetattr, args));
  if (res->status != NfsStat::kOk) return err(res->status, "setattr");
  if (res->attr.attr) cache_attr_(fh, *res->attr.attr, p);
  file_sizes_[fh.key()] = size;
  return Status::ok();
}

Status NfsClient::symlink(sim::Process& p, const std::string& link_path,
                          const std::string& target) {
  p.delay(cfg_.per_op_cpu);
  GVFS_ASSIGN_OR_RETURN(Fh dir, resolve_(p, path_dirname(link_path)));
  auto args = std::make_shared<SymlinkArgs>();
  args->dir = dir;
  args->name = path_basename(link_path);
  args->target = target;
  GVFS_ASSIGN_OR_RETURN(auto res, call_as_<SymlinkRes>(p, Proc::kSymlink, args));
  if (res->status != NfsStat::kOk) return err(res->status, "symlink");
  return Status::ok();
}

Status NfsClient::hard_link(sim::Process& p, const std::string& existing,
                            const std::string& link_path) {
  p.delay(cfg_.per_op_cpu);
  GVFS_ASSIGN_OR_RETURN(Fh file, resolve_(p, existing));
  GVFS_ASSIGN_OR_RETURN(Fh dir, resolve_(p, path_dirname(link_path)));
  auto args = std::make_shared<LinkArgs>();
  args->file = file;
  args->dir = dir;
  args->name = path_basename(link_path);
  GVFS_ASSIGN_OR_RETURN(auto res, call_as_<LinkRes>(p, Proc::kLink, args));
  if (res->status != NfsStat::kOk) return err(res->status, "link");
  path_cache_[link_path] = file;
  dentry_cache_[std::to_string(dir.key()) + "/" + args->name] = file;
  if (res->file_attr.attr) cache_attr_(file, *res->file_attr.attr, p);
  return Status::ok();
}

Result<std::vector<vfs::DirEntry>> NfsClient::list(sim::Process& p,
                                                   const std::string& path) {
  p.delay(cfg_.per_op_cpu);
  GVFS_ASSIGN_OR_RETURN(Fh dir, resolve_(p, path));
  std::vector<vfs::DirEntry> out;
  u64 cookie = 0;
  // READDIRPLUS: one round trip also primes the dentry and attribute caches
  // with every entry's handle and attributes.
  while (true) {
    auto args = std::make_shared<ReaddirplusArgs>();
    args->dir = dir;
    args->cookie = cookie;
    GVFS_ASSIGN_OR_RETURN(auto res,
                          call_as_<ReaddirplusRes>(p, Proc::kReaddirplus, args));
    if (res->status != NfsStat::kOk) return err(res->status, "readdirplus");
    for (const auto& e : res->entries) {
      vfs::FileType type = e.attr.attr ? e.attr.attr->type : vfs::FileType::kRegular;
      out.push_back(vfs::DirEntry{e.name, e.fileid, type});
      cookie = e.cookie;
      if (e.fh.valid()) {
        dentry_cache_[std::to_string(dir.key()) + "/" + e.name] = e.fh;
        key_to_fh_[e.fh.key()] = e.fh;
        if (e.attr.attr) cache_attr_(e.fh, *e.attr.attr, p);
      }
    }
    if (res->eof || res->entries.empty()) break;
  }
  return out;
}

Status NfsClient::flush(sim::Process& p) {
  p.delay(cfg_.per_op_cpu);
  // gvfs-lint: allow(yield-index-loop) dirty_files() returns a by-value snapshot; the flush below re-checks each file's dirty pages itself
  for (u64 key : pages_.dirty_files()) {
    auto it = key_to_fh_.find(key);
    if (it == key_to_fh_.end()) continue;
    GVFS_RETURN_IF_ERROR(flush_file_(p, it->second));
  }
  return Status::ok();
}

Status NfsClient::close(sim::Process& p, const std::string& path) {
  p.delay(cfg_.per_op_cpu);
  auto fh = resolve_(p, path);
  if (!fh.is_ok()) return Status::ok();  // never opened here
  return flush_file_(p, *fh);
}

}  // namespace gvfs::nfs
