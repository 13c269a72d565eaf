#include "nfs/nfs_server.h"

#include <algorithm>
#include <type_traits>

#include "common/hash.h"
#include "common/log.h"

namespace gvfs::nfs {

namespace {

constexpr u32 kPageSize = 8_KiB;         // server page-cache granularity
constexpr u64 kReadaheadBytes = 64_KiB;  // disk read per page-cache miss

// Map a Result/Status error into an NFS status word for a result body.
NfsStat to_nfsstat(const Status& st) { return st.code(); }

// The argument type of a procedure handler (unevaluated; see serve_).
template <class Args>
Args args_type(rpc::MessagePtr (NfsServer::*)(sim::Process&, const Args&,
                                              const rpc::Credential&));

}  // namespace

NfsServer::NfsServer(sim::SimKernel& kernel, vfs::MemFs& fs, sim::DiskModel& disk,
                     NfsServerConfig cfg)
    : kernel_(kernel),
      fs_(fs),
      disk_(disk),
      cfg_(cfg),
      page_cache_(cfg.buffer_cache_bytes, kPageSize),
      nfsd_(kernel, cfg.nfsd_threads),
      write_verifier_(0x6776667376657266ULL) {
  page_cache_.set_writeback(
      [this](sim::Process& p, u64, u64, const blob::BlobRef& data) {
        disk_.access(p, data ? data->size() : kPageSize,
                     sim::Locality::kSequential);
      });
}

Status NfsServer::add_export(const std::string& path) {
  GVFS_RETURN_IF_ERROR(fs_.mkdirs(path));
  GVFS_ASSIGN_OR_RETURN(vfs::FileId id, fs_.resolve(path));
  exports_[path] = id;
  return Status::ok();
}

Fh NfsServer::root_fh(const std::string& export_path) {
  auto it = exports_.find(export_path);
  return it == exports_.end() ? Fh{} : Fh{cfg_.fsid, it->second};
}

PostOpAttr NfsServer::post_attr_(vfs::FileId id) {
  PostOpAttr poa;
  auto a = fs_.getattr(id);
  if (a.is_ok()) poa.attr = *a;
  return poa;
}

void NfsServer::charge_read_(sim::Process& p, vfs::FileId id, u64 file_size,
                             u64 offset, u64 len) {
  if (len == 0) return;
  u64 first = offset / kPageSize;
  u64 last = (offset + len - 1) / kPageSize;
  u64 pages_per_cluster = std::max<u64>(1, kReadaheadBytes / kPageSize);
  for (u64 pg = first; pg <= last; ++pg) {
    if (page_cache_.lookup(id, pg)) continue;
    // Miss: one disk op for the readahead cluster containing this page.
    u64 cluster_first = pg - (pg % pages_per_cluster);
    u64 start = cluster_first * kPageSize;
    u64 bytes = file_size > start
                    ? std::min<u64>(kReadaheadBytes, file_size - start)
                    : kPageSize;
    auto it = last_read_page_.find(id);
    sim::Locality loc =
        (it != last_read_page_.end() &&
         cluster_first >= it->second && cluster_first <= it->second + 2 * pages_per_cluster)
            ? sim::Locality::kSequential
            : sim::Locality::kRandom;
    last_read_page_[id] = cluster_first;
    disk_.access(p, bytes, loc);
    for (u64 i = 0; i < pages_per_cluster; ++i) {
      u64 cp = cluster_first + i;
      u64 off = cp * kPageSize;
      if (off >= file_size && cp != pg) continue;
      u64 n = off < file_size ? std::min<u64>(kPageSize, file_size - off) : 0;
      auto data = n > 0 ? fs_.read_ref(id, off, n) : Result<blob::BlobRef>(blob::zero_ref(0));
      page_cache_.insert(p, id, cp, data.is_ok() ? *data : blob::zero_ref(0),
                         /*dirty=*/false);
    }
  }
}

// ------------------------------------------------- duplicate request cache --

u64 NfsServer::drc_key_(const rpc::RpcCall& call) const {
  // Real DRCs key on (xid, client address, prog, proc); our client identity
  // is the credential's (machine, uid). Distinct transactions always carry
  // distinct xids per client; a retransmission reuses its xid. The hash is
  // only a bucket locator — entries carry the full tuple and every hit is
  // verified with drc_matches_(), so a collision degrades to a miss rather
  // than replaying another transaction's reply.
  u64 h = fnv1a64(call.cred.machine);
  h = hash_combine(h, call.cred.uid);
  h = hash_combine(h, (static_cast<u64>(call.prog) << 32) | call.proc);
  h = hash_combine(h, call.xid);
  if (cfg_.drc_key_bits < 64) h &= (u64{1} << cfg_.drc_key_bits) - 1;
  return h;
}

bool NfsServer::drc_matches_(const DrcEntry& e, const rpc::RpcCall& call) {
  return e.xid == call.xid && e.proc == call.proc && e.prog == call.prog &&
         e.uid == call.cred.uid && e.machine == call.cred.machine;
}

void NfsServer::flush_dirty_(sim::Process& p, vfs::FileId id) {
  auto it = dirty_bytes_.find(id);
  if (it == dirty_bytes_.end() || it->second == 0) return;
  u64 n = it->second;
  disk_.access(p, n, sim::Locality::kSequential);
  // The disk write yielded: another nfsd fiber may have rehashed or cleared
  // the dirty map meanwhile, so re-find before clearing the entry.
  it = dirty_bytes_.find(id);
  if (it != dirty_bytes_.end()) it->second = 0;
}

rpc::RpcReply NfsServer::handle(sim::Process& p, const rpc::RpcCall& call) {
  // gvfs-yield: allow-held the nfsd permit models the server's fixed worker pool and spans the whole request by design
  sim::ScopedPermit permit(p, nfsd_);
  SimTime t0 = p.now();
  total_calls_.inc();
  if (call.prog == rpc::kNfsProgram && call.proc < proc_calls_.size()) {
    ++proc_calls_[call.proc];
  }
  if (cfg_.per_op_cpu > 0) p.delay(cfg_.per_op_cpu);

  rpc::RpcReply reply;
  if (call.prog == rpc::kNfsProgram &&
      call.cred.flavor != rpc::AuthFlavor::kUnix) {
    reply = rpc::make_error_reply(call, err(ErrCode::kAuthError, "AUTH_UNIX required"));
  } else if (authorizer_ && !authorizer_(call.cred)) {
    reply = rpc::make_error_reply(call, err(ErrCode::kAuthError, "rejected by policy"));
  } else if (call.prog == rpc::kMountProgram) {
    reply = dispatch_mount_(p, call);
  } else if (call.prog == rpc::kNfsProgram) {
    reply = handle_nfs_(p, call);
  } else {
    reply = rpc::make_error_reply(call, err(ErrCode::kRpcMismatch, "unknown program"));
  }
  service_ms_.observe(static_cast<double>(p.now() - t0) /
                      static_cast<double>(kMillisecond));
  return reply;
}

rpc::RpcReply NfsServer::handle_nfs_(sim::Process& p, const rpc::RpcCall& call) {
  // Duplicate request cache: a retransmission of a recent non-idempotent
  // transaction must not execute twice (the first execution's effects are
  // already in the filesystem) — replay the cached reply. Error replies are
  // cached and replayed as well (RFC 1813 §4): re-executing e.g. a REMOVE
  // whose first reply was lost would otherwise return a spurious NOENT.
  bool cacheable = cfg_.drc_entries > 0 && !proc_info(call.proc).idempotent;
  u64 key = 0;
  bool collided = false;
  if (cacheable) {
    key = drc_key_(call);
    auto hit = drc_.find(key);
    if (hit != drc_.end()) {
      if (drc_matches_(hit->second, call)) {
        drc_hits_.inc();
        if (tracer_) tracer_->annotate(&p, "server", "drc_hit", p.now());
        rpc::RpcReply replay;
        replay.xid = call.xid;
        replay.status = hit->second.status;
        replay.result = hit->second.result;
        return replay;
      }
      // Hash collision with a different live transaction: execute normally
      // but do not evict the resident entry (its owner may still retransmit).
      drc_collisions_.inc();
      collided = true;
      if (tracer_) tracer_->annotate(&p, "server", "drc_collision", p.now());
    }
  }
  rpc::RpcReply reply = dispatch_nfs_(p, call);
  if (cacheable && !collided) {
    if (drc_order_.size() >= cfg_.drc_entries) {
      drc_.erase(drc_order_.front());
      drc_order_.pop_front();
    }
    DrcEntry e;
    e.machine = call.cred.machine;
    e.uid = call.cred.uid;
    e.prog = call.prog;
    e.proc = call.proc;
    e.xid = call.xid;
    e.status = reply.status;
    e.result = reply.result;
    drc_.emplace(key, std::move(e));
    drc_order_.push_back(key);
    drc_inserts_.inc();
    if (tracer_) tracer_->annotate(&p, "server", "drc_insert", p.now());
  }
  return reply;
}

rpc::RpcReply NfsServer::dispatch_mount_(sim::Process&, const rpc::RpcCall& call) {
  switch (static_cast<MountProc>(call.proc)) {
    case MountProc::kNull:
      return rpc::make_reply(call, std::make_shared<VoidMsg>());
    case MountProc::kMnt: {
      auto args = rpc::message_cast<MountArgs>(call.args);
      if (!args) return rpc::make_error_reply(call, err(ErrCode::kBadXdr));
      auto res = std::make_shared<MountRes>();
      auto it = exports_.find(args->dirpath);
      if (it == exports_.end()) {
        res->status = NfsStat::kNoEnt;
      } else {
        res->root = Fh{cfg_.fsid, it->second};
      }
      return rpc::make_reply(call, res);
    }
    case MountProc::kUmnt:
      return rpc::make_reply(call, std::make_shared<VoidMsg>());
  }
  return rpc::make_error_reply(call, err(ErrCode::kRpcMismatch, "bad mount proc"));
}

constexpr std::array<NfsServer::Handler, kNfsProcs.size()> NfsServer::kHandlers_ = [] {
  using S = NfsServer;
  std::array<Handler, kNfsProcs.size()> h{};
  auto at = [&h](Proc proc) -> Handler& { return h[static_cast<u32>(proc)]; };
  at(Proc::kNull) = &S::serve_<&S::do_null_>;
  at(Proc::kGetattr) = &S::serve_<&S::do_getattr_>;
  at(Proc::kSetattr) = &S::serve_<&S::do_setattr_>;
  at(Proc::kLookup) = &S::serve_<&S::do_lookup_>;
  at(Proc::kAccess) = &S::serve_<&S::do_access_>;
  at(Proc::kReadlink) = &S::serve_<&S::do_readlink_>;
  at(Proc::kRead) = &S::serve_<&S::do_read_>;
  at(Proc::kWrite) = &S::serve_<&S::do_write_>;
  at(Proc::kCreate) = &S::serve_<&S::do_create_>;
  at(Proc::kMkdir) = &S::serve_<&S::do_mkdir_>;
  at(Proc::kSymlink) = &S::serve_<&S::do_symlink_>;
  at(Proc::kRemove) = &S::serve_<&S::do_remove_>;
  at(Proc::kRmdir) = &S::serve_<&S::do_rmdir_>;
  at(Proc::kRename) = &S::serve_<&S::do_rename_>;
  at(Proc::kLink) = &S::serve_<&S::do_link_>;
  at(Proc::kReaddir) = &S::serve_<&S::do_readdir_>;
  at(Proc::kReaddirplus) = &S::serve_<&S::do_readdirplus_>;
  at(Proc::kFsstat) = &S::serve_<&S::do_fsstat_>;
  at(Proc::kFsinfo) = &S::serve_<&S::do_fsinfo_>;
  at(Proc::kPathconf) = &S::serve_<&S::do_pathconf_>;
  at(Proc::kCommit) = &S::serve_<&S::do_commit_>;
  at(Proc::kLeaseAcquire) = &S::serve_<&S::do_lease_acquire_>;
  at(Proc::kLeaseRelease) = &S::serve_<&S::do_lease_release_>;
  return h;
}();

template <auto Do>
rpc::MessagePtr NfsServer::serve_(sim::Process& p, const rpc::RpcCall& call) {
  using Args = decltype(args_type(Do));
  if constexpr (std::is_same_v<Args, VoidMsg>) {
    return (this->*Do)(p, VoidMsg{}, call.cred);
  } else {
    const auto* a = dynamic_cast<const Args*>(call.args.get());
    return a != nullptr ? (this->*Do)(p, *a, call.cred) : nullptr;
  }
}

rpc::RpcReply NfsServer::dispatch_nfs_(sim::Process& p, const rpc::RpcCall& call) {
  Handler h = call.proc < kHandlers_.size() ? kHandlers_[call.proc] : nullptr;
  if (h == nullptr) {
    return rpc::make_error_reply(call, err(ErrCode::kRpcMismatch, "bad proc"));
  }
  // gvfs-yield: yields via the procedure's handler (READ, WRITE, SETATTR and COMMIT reach the disk)
  rpc::MessagePtr res = (this->*h)(p, call);
  if (!res) return rpc::make_error_reply(call, err(ErrCode::kBadXdr, "bad args type"));
  return rpc::make_reply(call, std::move(res));
}

rpc::MessagePtr NfsServer::do_null_(sim::Process&, const VoidMsg&, const Cred&) {
  return std::make_shared<VoidMsg>();
}

rpc::MessagePtr NfsServer::do_getattr_(sim::Process&, const GetattrArgs& a, const Cred&) {
  auto res = std::make_shared<GetattrRes>();
  auto attr = fs_.getattr(a.fh.fileid);
  if (!attr.is_ok()) {
    res->status = to_nfsstat(attr.status());
  } else {
    res->attr = Fattr{*attr};
  }
  return res;
}

rpc::MessagePtr NfsServer::do_setattr_(sim::Process& p, const SetattrArgs& a,
                                       const Cred&) {
  auto res = std::make_shared<SetattrRes>();
  // Truncation drops cached pages past EOF — cheap metadata op on disk.
  if (a.sattr.sa.set_size) disk_.access(p, 4_KiB, sim::Locality::kSequential);
  Status st = fs_.setattr(a.fh.fileid, a.sattr.sa);
  res->status = to_nfsstat(st);
  res->attr = post_attr_(a.fh.fileid);
  return res;
}

rpc::MessagePtr NfsServer::do_lookup_(sim::Process&, const LookupArgs& a, const Cred&) {
  auto res = std::make_shared<LookupRes>();
  auto id = fs_.lookup(a.dir.fileid, a.name);
  if (!id.is_ok()) {
    res->status = to_nfsstat(id.status());
  } else {
    res->fh = Fh{cfg_.fsid, *id};
    res->obj_attr = post_attr_(*id);
  }
  res->dir_attr = post_attr_(a.dir.fileid);
  return res;
}

rpc::MessagePtr NfsServer::do_access_(sim::Process&, const AccessArgs& a, const Cred&) {
  auto res = std::make_shared<AccessRes>();
  auto attr = fs_.getattr(a.fh.fileid);
  if (!attr.is_ok()) {
    res->status = to_nfsstat(attr.status());
  } else {
    res->attr.attr = *attr;
    res->access = a.access;  // permissive export
  }
  return res;
}

rpc::MessagePtr NfsServer::do_readlink_(sim::Process&, const ReadlinkArgs& a,
                                        const Cred&) {
  auto res = std::make_shared<ReadlinkRes>();
  auto target = fs_.readlink(a.fh.fileid);
  if (!target.is_ok()) {
    res->status = to_nfsstat(target.status());
  } else {
    res->target = *target;
  }
  res->attr = post_attr_(a.fh.fileid);
  return res;
}

rpc::MessagePtr NfsServer::do_read_(sim::Process& p, const ReadArgs& a, const Cred&) {
  auto res = std::make_shared<ReadRes>();
  auto attr = fs_.getattr(a.fh.fileid);
  if (!attr.is_ok()) {
    res->status = to_nfsstat(attr.status());
    return res;
  }
  if (attr->type != vfs::FileType::kRegular) {
    res->status = NfsStat::kIsDir;
    return res;
  }
  u32 count = std::min(a.count, cfg_.max_io);
  u64 n = a.offset >= attr->size ? 0 : std::min<u64>(count, attr->size - a.offset);
  charge_read_(p, a.fh.fileid, attr->size, a.offset, n);
  auto data = n > 0 ? fs_.read_ref(a.fh.fileid, a.offset, n)
                    : Result<blob::BlobRef>(blob::zero_ref(0));
  if (!data.is_ok()) {
    res->status = to_nfsstat(data.status());
    return res;
  }
  res->count = static_cast<u32>(n);
  res->eof = a.offset + n >= attr->size;
  res->data = *data;
  res->attr.attr = *attr;
  return res;
}

rpc::MessagePtr NfsServer::do_write_(sim::Process& p, const WriteArgs& a, const Cred&) {
  auto res = std::make_shared<WriteRes>();
  u32 count = std::min(a.count, cfg_.max_io);
  if (!a.data || a.data->size() < count) {
    res->status = NfsStat::kInval;
    return res;
  }
  Status st = fs_.write_blob(a.fh.fileid, a.offset, a.data, 0, count);
  if (!st.is_ok()) {
    res->status = to_nfsstat(st);
    return res;
  }
  dirty_bytes_[a.fh.fileid] += count;
  if (a.stable != StableHow::kUnstable) {
    flush_dirty_(p, a.fh.fileid);
    res->committed = StableHow::kFileSync;
  } else {
    res->committed = StableHow::kUnstable;
  }
  res->count = count;
  res->verifier = write_verifier_;
  res->attr = post_attr_(a.fh.fileid);
  return res;
}

rpc::MessagePtr NfsServer::do_create_(sim::Process&, const CreateArgs& a, const Cred& cred) {
  auto res = std::make_shared<CreateRes>();
  auto id = fs_.create(a.dir.fileid, a.name,
                       a.sattr.sa.set_mode ? a.sattr.sa.mode : 0644, cred.uid,
                       cred.gid);
  if (!id.is_ok()) {
    res->status = to_nfsstat(id.status());
    return res;
  }
  res->fh = Fh{cfg_.fsid, *id};
  res->attr = post_attr_(*id);
  return res;
}

rpc::MessagePtr NfsServer::do_mkdir_(sim::Process&, const MkdirArgs& a, const Cred& cred) {
  auto res = std::make_shared<MkdirRes>();
  auto id = fs_.mkdir(a.dir.fileid, a.name,
                      a.sattr.sa.set_mode ? a.sattr.sa.mode : 0755, cred.uid,
                      cred.gid);
  if (!id.is_ok()) {
    res->status = to_nfsstat(id.status());
    return res;
  }
  res->fh = Fh{cfg_.fsid, *id};
  res->attr = post_attr_(*id);
  return res;
}

rpc::MessagePtr NfsServer::do_symlink_(sim::Process&, const SymlinkArgs& a, const Cred&) {
  auto res = std::make_shared<SymlinkRes>();
  auto id = fs_.symlink(a.dir.fileid, a.name, a.target);
  if (!id.is_ok()) {
    res->status = to_nfsstat(id.status());
    return res;
  }
  res->fh = Fh{cfg_.fsid, *id};
  res->attr = post_attr_(*id);
  return res;
}

rpc::MessagePtr NfsServer::do_remove_(sim::Process&, const RemoveArgs& a, const Cred&) {
  auto res = std::make_shared<RemoveRes>();
  res->status = to_nfsstat(fs_.remove(a.dir.fileid, a.name));
  res->dir_attr = post_attr_(a.dir.fileid);
  return res;
}

rpc::MessagePtr NfsServer::do_rmdir_(sim::Process&, const RemoveArgs& a, const Cred&) {
  auto res = std::make_shared<RemoveRes>();
  res->status = to_nfsstat(fs_.rmdir(a.dir.fileid, a.name));
  res->dir_attr = post_attr_(a.dir.fileid);
  return res;
}

rpc::MessagePtr NfsServer::do_rename_(sim::Process&, const RenameArgs& a, const Cred&) {
  auto res = std::make_shared<RenameRes>();
  res->status = to_nfsstat(
      fs_.rename(a.from_dir.fileid, a.from_name, a.to_dir.fileid, a.to_name));
  res->dir_attr = post_attr_(a.to_dir.fileid);
  return res;
}

rpc::MessagePtr NfsServer::do_link_(sim::Process&, const LinkArgs& a, const Cred&) {
  auto res = std::make_shared<LinkRes>();
  res->status = to_nfsstat(fs_.link(a.file.fileid, a.dir.fileid, a.name));
  res->file_attr = post_attr_(a.file.fileid);
  res->dir_attr = post_attr_(a.dir.fileid);
  return res;
}

rpc::MessagePtr NfsServer::do_readdirplus_(sim::Process&, const ReaddirplusArgs& a,
                                           const Cred&) {
  auto res = std::make_shared<ReaddirplusRes>();
  auto entries = fs_.readdir(a.dir.fileid);
  if (!entries.is_ok()) {
    res->status = to_nfsstat(entries.status());
    return res;
  }
  u64 budget = a.maxcount > 1_KiB ? a.maxcount - 512 : 512;
  u64 used = 0;
  for (u64 i = a.cookie; i < entries->size(); ++i) {
    const auto& e = (*entries)[i];
    ReaddirplusRes::Entry out;
    out.fileid = e.id;
    out.name = e.name;
    out.cookie = i + 1;
    out.fh = Fh{cfg_.fsid, e.id};
    out.attr = post_attr_(e.id);
    u64 entry_size = 4 + xdr::size_of(out);  // + value-follows
    if (used + entry_size > budget && !res->entries.empty()) {
      res->eof = false;
      break;
    }
    used += entry_size;
    res->entries.push_back(std::move(out));
  }
  res->dir_attr = post_attr_(a.dir.fileid);
  return res;
}

rpc::MessagePtr NfsServer::do_pathconf_(sim::Process&, const GetattrArgs& a, const Cred&) {
  auto res = std::make_shared<PathconfRes>();
  res->attr = post_attr_(a.fh.fileid);
  return res;
}

rpc::MessagePtr NfsServer::do_readdir_(sim::Process&, const ReaddirArgs& a, const Cred&) {
  auto res = std::make_shared<ReaddirRes>();
  auto entries = fs_.readdir(a.dir.fileid);
  if (!entries.is_ok()) {
    res->status = to_nfsstat(entries.status());
    return res;
  }
  // Cookie = index into the stable (sorted) child list.
  u64 cookie = a.cookie;
  u64 budget = a.max_count > 512 ? a.max_count - 256 : 256;  // header slack
  u64 used = 0;
  for (u64 i = cookie; i < entries->size(); ++i) {
    const auto& e = (*entries)[i];
    ReaddirRes::Entry out{e.id, e.name, i + 1};
    u64 entry_size = 4 + xdr::size_of(out);  // + value-follows
    if (used + entry_size > budget && !res->entries.empty()) {
      res->eof = false;
      break;
    }
    used += entry_size;
    res->entries.push_back(std::move(out));
  }
  res->dir_attr = post_attr_(a.dir.fileid);
  return res;
}

rpc::MessagePtr NfsServer::do_fsstat_(sim::Process&, const VoidMsg&, const Cred&) {
  auto res = std::make_shared<FsstatRes>();
  res->total_bytes = 576_GiB;
  res->free_bytes = 500_GiB;
  res->total_files = fs_.inode_count();
  return res;
}

rpc::MessagePtr NfsServer::do_fsinfo_(sim::Process&, const VoidMsg&, const Cred&) {
  auto res = std::make_shared<FsinfoRes>();
  res->rtmax = res->rtpref = cfg_.max_io;
  res->wtmax = res->wtpref = cfg_.max_io;
  return res;
}

rpc::MessagePtr NfsServer::do_commit_(sim::Process& p, const CommitArgs& a, const Cred&) {
  auto res = std::make_shared<CommitRes>();
  flush_dirty_(p, a.fh.fileid);
  res->verifier = write_verifier_;
  res->attr = post_attr_(a.fh.fileid);
  return res;
}

// ------------------------------------------------------------------ leases --
//
// Delegation-style per-file leases (DESIGN.md 5.10). Grants and releases run
// on nfsd fibers and never block on a callback round trip: a conflicting
// acquire fires an asynchronous recall fiber at each conflicting holder and
// answers "not granted, retry later" (the NFS4ERR_DELAY shape). The acquirer
// retries until the holder flushes and is removed (recall reply), or until
// the holder's lease lapses in virtual time (partitioned holder).
//
// The lease table is only ever mutated through lease_add_holder_,
// lease_remove_holder_, lease_expire_holders_ and clear_leases; gvfs_lint
// enforces this (rule: lease-table-mutation).

rpc::MessagePtr NfsServer::do_lease_acquire_(sim::Process& p, const LeaseArgs& a,
                                             const Cred&) {
  auto res = std::make_shared<LeaseRes>();
  if (!cfg_.enable_leases) {
    res->status = NfsStat::kNotSupported;
    return res;
  }
  if (!fs_.getattr(a.fh.fileid).is_ok()) {
    res->status = NfsStat::kStale;
    return res;
  }
  const u64 key = a.fh.key();
  lease_expire_holders_(key, p.now());

  bool conflict = false;
  auto it = leases_.find(key);
  if (it != leases_.end()) {
    for (auto& h : it->second.holders) {
      if (h.client == a.client_id) continue;
      if (a.mode == LeaseMode::kRead && h.mode == LeaseMode::kRead) continue;
      conflict = true;
      if (!h.recall_sent) {
        h.recall_sent = true;
        spawn_recall_(it->second.fh, h.client, a.mode);
      }
    }
  }
  if (conflict) {
    leases_denied_.inc();
    res->granted = false;
    return res;
  }

  const SimTime expiry = p.now() + cfg_.lease_duration;
  lease_add_holder_(a.fh, a.client_id, a.mode, expiry);
  leases_granted_.inc();
  lease_grants_.push_back(LeaseGrant{key, a.client_id, a.mode, p.now()});
  res->granted = true;
  res->expiry = expiry;
  auto granted_it = leases_.find(key);
  res->holders =
      granted_it == leases_.end()
          ? 0u
          : static_cast<u32>(granted_it->second.holders.size());
  return res;
}

rpc::MessagePtr NfsServer::do_lease_release_(sim::Process&, const LeaseReleaseArgs& a,
                                             const Cred&) {
  auto res = std::make_shared<LeaseReleaseRes>();
  if (!cfg_.enable_leases) {
    res->status = NfsStat::kNotSupported;
    return res;
  }
  if (lease_remove_holder_(a.fh.key(), a.client_id)) lease_releases_.inc();
  return res;
}

void NfsServer::lease_add_holder_(const Fh& fh, u64 client, LeaseMode mode,
                                  SimTime expiry) {
  // gvfs-lint: allow(lease-table-mutation) sanctioned helper
  LeaseEntry& e = leases_[fh.key()];
  e.fh = fh;
  for (auto& h : e.holders) {
    if (h.client != client) continue;
    // Renewal. Upgrade read->write in place; never downgrade, so a holder
    // re-probing with a read acquire keeps its write delegation.
    if (mode == LeaseMode::kWrite) h.mode = LeaseMode::kWrite;
    h.expiry = expiry;
    h.recall_sent = false;
    return;
  }
  e.holders.push_back(LeaseHolder{client, mode, expiry, false});
}

bool NfsServer::lease_remove_holder_(u64 key, u64 client) {
  auto it = leases_.find(key);
  if (it == leases_.end()) return false;
  auto& hs = it->second.holders;
  auto pos = std::find_if(hs.begin(), hs.end(), [&](const LeaseHolder& h) {
    return h.client == client;
  });
  if (pos == hs.end()) return false;
  hs.erase(pos);
  if (hs.empty()) {
    // gvfs-lint: allow(lease-table-mutation) sanctioned helper
    leases_.erase(it);
  }
  return true;
}

void NfsServer::lease_expire_holders_(u64 key, SimTime now) {
  auto it = leases_.find(key);
  if (it == leases_.end()) return;
  auto& hs = it->second.holders;
  const std::size_t before = hs.size();
  hs.erase(std::remove_if(hs.begin(), hs.end(),
                          [&](const LeaseHolder& h) { return h.expiry <= now; }),
           hs.end());
  for (std::size_t n = hs.size(); n < before; ++n) lease_expirations_.inc();
  if (hs.empty()) {
    // gvfs-lint: allow(lease-table-mutation) sanctioned helper
    leases_.erase(it);
  }
}

void NfsServer::spawn_recall_(const Fh& fh, u64 client, LeaseMode contender) {
  auto cb = lease_callbacks_.find(client);
  if (cb == lease_callbacks_.end()) {
    // Holder is not lease-aware (no callback channel registered); nothing to
    // recall, the lease simply lapses at expiry.
    return;
  }
  rpc::RpcChannel* chan = cb->second;
  lease_recalls_.inc();

  rpc::RpcCall call;
  call.xid = recall_xid_++;
  call.prog = kLeaseCallbackProgram;
  call.vers = kLeaseCallbackVersion;
  call.proc = static_cast<u32>(CallbackProc::kRecall);
  auto args = std::make_shared<RecallArgs>();
  args->fh = fh;
  args->client_id = client;
  args->contender = contender;
  call.args = args;

  const u64 key = fh.key();
  kernel_.spawn("lease-recall-" + std::to_string(call.xid),
                [this, chan, call, key, client](sim::Process& rp) {
                  rpc::RpcReply r = chan->call(rp, call);
                  auto rres = rpc::message_cast<RecallRes>(r.result);
                  if (r.status.is_ok() && rres && rres->status == NfsStat::kOk) {
                    lease_remove_holder_(key, client);
                    return;
                  }
                  // Unreachable or uncooperative holder: the lease lapses at
                  // its virtual-time expiry and the contender keeps retrying
                  // until then. Re-arm recall_sent so a later conflicting
                  // acquire retries the callback once the path heals.
                  lease_recall_failures_.inc();
                  auto it = leases_.find(key);
                  if (it == leases_.end()) return;
                  for (auto& h : it->second.holders) {
                    if (h.client == client) h.recall_sent = false;
                  }
                });
}

}  // namespace gvfs::nfs
