// NFSv3-style protocol messages (RFC 1813 subset) and the NFS procedure
// table. Every message type, and every type nested in one, states its wire
// layout once, as an XDR field list (`fields`, see xdr/xdr.h); wire_size(),
// encode() and decode() are derived from it, so the size the simulation
// charges is the size the encoder writes. Message bodies derive
// rpc::XdrMessage so they flow through channels, proxies and tunnels
// uniformly.
//
// Adding a procedure takes one field list per new message type, one row in
// kNfsProcTable below and one NfsServer handler (DESIGN.md §5.1).
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "blob/blob.h"
#include "common/hash.h"
#include "common/status.h"
#include "rpc/rpc.h"
#include "vfs/vfs.h"
#include "xdr/xdr.h"

namespace gvfs::nfs {

// Procedure numbers (RFC 1813 §3).
enum class Proc : u32 {
  kNull = 0,
  kGetattr = 1,
  kSetattr = 2,
  kLookup = 3,
  kAccess = 4,
  kReadlink = 5,
  kRead = 6,
  kWrite = 7,
  kCreate = 8,
  kMkdir = 9,
  kSymlink = 10,
  kRemove = 12,
  kRmdir = 13,
  kRename = 14,
  kLink = 15,
  kReaddir = 16,
  kReaddirplus = 17,
  kFsstat = 18,
  kFsinfo = 19,
  kPathconf = 20,
  kCommit = 21,
  // GVFS lease extension (DESIGN.md §5.10): delegation-style per-file leases
  // in the spirit of NFSv4 delegations, carried as extra procedures on the
  // v3 program. Plain v3 clients never issue them; the server enforces
  // leases only between lease-aware proxies.
  kLeaseAcquire = 22,
  kLeaseRelease = 23,
};

// NFSv3 status codes ride the same numeric space as ErrCode (by design).
using NfsStat = ErrCode;

// Protocol hard limit on READ/WRITE transfer size (§3.2.1: "up to the NFS
// protocol limit of 32KB").
constexpr u32 kMaxBlockSize = 32768;

enum class StableHow : u32 { kUnstable = 0, kDataSync = 1, kFileSync = 2 };

// --------------------------------------------------------------------------
// Nested types. They are not messages, so each spells out the three members
// a message inherits from rpc::XdrMessage.

// File handle: fixed 16-byte payload (fsid + fileid) carried as variable
// opaque on the wire, as real servers do.
struct Fh {
  u64 fsid = 0;
  u64 fileid = 0;

  [[nodiscard]] bool valid() const { return fileid != 0; }
  [[nodiscard]] u64 key() const { return hash_combine(fsid, fileid); }
  bool operator==(const Fh& o) const { return fsid == o.fsid && fileid == o.fileid; }

  static constexpr void fields(auto& self, auto& io) {
    io.expect_word(16);  // opaque length: the body is fsid || fileid
    io(self.fsid, self.fileid);
  }
  static constexpr u64 wire_size() { return xdr::size_of(Fh{}); }
  void encode(xdr::XdrEncoder& enc) const { xdr::encode(*this, enc); }
  static Result<Fh> decode(xdr::XdrDecoder& dec) { return xdr::decode<Fh>(dec); }
};

struct FhHash {
  std::size_t operator()(const Fh& fh) const { return static_cast<std::size_t>(fh.key()); }
};

// fattr3.
struct Fattr {
  vfs::Attr a;

  // The fattr3 layout of a vfs::Attr (PostOpAttr reuses it).
  static constexpr void attr(auto& a, auto& io) {
    io(a.type, a.mode, a.nlink, a.uid, a.gid, a.size);
    io.skip_hyper(a.size);  // used
    io.skip_hyper(0);       // rdev
    io.skip_hyper(1);       // fsid
    io(a.fileid);
    io.time(a.atime);
    io.time(a.mtime);
    io.time(a.ctime);
  }
  static constexpr void fields(auto& self, auto& io) { attr(self.a, io); }
  static constexpr u64 wire_size() { return xdr::size_of(Fattr{}); }
  void encode(xdr::XdrEncoder& enc) const { xdr::encode(*this, enc); }
  static Result<Fattr> decode(xdr::XdrDecoder& dec) { return xdr::decode<Fattr>(dec); }
};

// post_op_attr: bool + optional fattr3.
struct PostOpAttr {
  std::optional<vfs::Attr> attr;

  static constexpr void fields(auto& self, auto& io) {
    io.optional(self.attr, [](auto& a, auto& in) { Fattr::attr(a, in); });
  }
  [[nodiscard]] u64 wire_size() const { return xdr::size_of(*this); }
  void encode(xdr::XdrEncoder& enc) const { xdr::encode(*this, enc); }
  static Result<PostOpAttr> decode(xdr::XdrDecoder& dec) {
    return xdr::decode<PostOpAttr>(dec);
  }
};

// sattr3.
struct Sattr {
  vfs::SetAttr sa;

  static constexpr void fields(auto& self, auto& io) {
    io(self.sa.set_mode);
    if (self.sa.set_mode) io(self.sa.mode);
    io(self.sa.set_uid);
    if (self.sa.set_uid) io(self.sa.uid);
    io(self.sa.set_gid);
    if (self.sa.set_gid) io(self.sa.gid);
    io(self.sa.set_size);
    if (self.sa.set_size) io(self.sa.size);
    io.skip_word(0);                // atime: DONT_CHANGE
    io.flag(self.sa.set_mtime, 2);  // mtime: SET_TO_CLIENT_TIME or DONT_CHANGE
    if (self.sa.set_mtime) io.time(self.sa.mtime);
  }
  [[nodiscard]] u64 wire_size() const { return xdr::size_of(*this); }
  void encode(xdr::XdrEncoder& enc) const { xdr::encode(*this, enc); }
  static Result<Sattr> decode(xdr::XdrDecoder& dec) { return xdr::decode<Sattr>(dec); }
};

// --------------------------------------------------------------------------
// Message bodies.

// Void body (NULL proc, and a placeholder for errors).
struct VoidMsg final : rpc::XdrMessage<VoidMsg> {
  static constexpr void fields(auto&, auto&) {}
};

// Every NFS result starts with a status word; failed results carry only
// (status + post-op attrs), which the field lists express as branches on it.

struct GetattrArgs final : rpc::XdrMessage<GetattrArgs> {
  Fh fh;
  static constexpr void fields(auto& self, auto& io) { io(self.fh); }
};

struct GetattrRes final : rpc::XdrMessage<GetattrRes> {
  NfsStat status = NfsStat::kOk;
  Fattr attr;
  static constexpr void fields(auto& self, auto& io) {
    io(self.status);
    if (self.status == NfsStat::kOk) io(self.attr);
  }
};

struct SetattrArgs final : rpc::XdrMessage<SetattrArgs> {
  Fh fh;
  Sattr sattr;
  static constexpr void fields(auto& self, auto& io) {
    io(self.fh, self.sattr);
    io.skip_word(0);  // no guard
  }
};

struct SetattrRes final : rpc::XdrMessage<SetattrRes> {
  NfsStat status = NfsStat::kOk;
  PostOpAttr attr;
  static constexpr void fields(auto& self, auto& io) { io(self.status, self.attr); }
};

struct LookupArgs final : rpc::XdrMessage<LookupArgs> {
  Fh dir;
  std::string name;
  static constexpr void fields(auto& self, auto& io) { io(self.dir, self.name); }
};

struct LookupRes final : rpc::XdrMessage<LookupRes> {
  NfsStat status = NfsStat::kOk;
  Fh fh;
  PostOpAttr obj_attr;
  PostOpAttr dir_attr;
  static constexpr void fields(auto& self, auto& io) {
    io(self.status);
    if (self.status == NfsStat::kOk) io(self.fh, self.obj_attr);
    io(self.dir_attr);
  }
};

struct AccessArgs final : rpc::XdrMessage<AccessArgs> {
  Fh fh;
  u32 access = 0;
  static constexpr void fields(auto& self, auto& io) { io(self.fh, self.access); }
};

struct AccessRes final : rpc::XdrMessage<AccessRes> {
  NfsStat status = NfsStat::kOk;
  PostOpAttr attr;
  u32 access = 0;
  static constexpr void fields(auto& self, auto& io) {
    io(self.status, self.attr);
    if (self.status == NfsStat::kOk) io(self.access);
  }
};

struct ReadlinkArgs final : rpc::XdrMessage<ReadlinkArgs> {
  Fh fh;
  static constexpr void fields(auto& self, auto& io) { io(self.fh); }
};

struct ReadlinkRes final : rpc::XdrMessage<ReadlinkRes> {
  NfsStat status = NfsStat::kOk;
  PostOpAttr attr;
  std::string target;
  static constexpr void fields(auto& self, auto& io) {
    io(self.status, self.attr);
    if (self.status == NfsStat::kOk) io(self.target);
  }
};

struct ReadArgs final : rpc::XdrMessage<ReadArgs> {
  Fh fh;
  u64 offset = 0;
  u32 count = 0;
  static constexpr void fields(auto& self, auto& io) { io(self.fh, self.offset, self.count); }
};

struct ReadRes final : rpc::XdrMessage<ReadRes> {
  NfsStat status = NfsStat::kOk;
  PostOpAttr attr;
  u32 count = 0;
  bool eof = false;
  blob::BlobRef data;  // lazy payload; count == data->size()
  static constexpr void fields(auto& self, auto& io) {
    io(self.status, self.attr);
    if (self.status != NfsStat::kOk) return;
    io(self.count, self.eof);
    io.payload(self.data, self.count);
  }
  [[nodiscard]] const blob::Blob* bulk_payload() const override {
    return status == NfsStat::kOk && count > 0 ? data.get() : nullptr;
  }
};

struct WriteArgs final : rpc::XdrMessage<WriteArgs> {
  Fh fh;
  u64 offset = 0;
  u32 count = 0;
  StableHow stable = StableHow::kUnstable;
  blob::BlobRef data;
  static constexpr void fields(auto& self, auto& io) {
    io(self.fh, self.offset, self.count, self.stable);
    io.payload(self.data, self.count);
  }
  [[nodiscard]] const blob::Blob* bulk_payload() const override {
    return count > 0 ? data.get() : nullptr;
  }
};

struct WriteRes final : rpc::XdrMessage<WriteRes> {
  NfsStat status = NfsStat::kOk;
  PostOpAttr attr;
  u32 count = 0;
  StableHow committed = StableHow::kFileSync;
  u64 verifier = 0;
  static constexpr void fields(auto& self, auto& io) {
    io(self.status, self.attr);
    if (self.status == NfsStat::kOk) io(self.count, self.committed, self.verifier);
  }
};

struct CreateArgs final : rpc::XdrMessage<CreateArgs> {
  Fh dir;
  std::string name;
  Sattr sattr;
  static constexpr void fields(auto& self, auto& io) {
    io(self.dir, self.name);
    io.skip_word(0);  // createmode UNCHECKED
    io(self.sattr);
  }
};

struct CreateRes final : rpc::XdrMessage<CreateRes> {
  NfsStat status = NfsStat::kOk;
  Fh fh;
  PostOpAttr attr;
  static constexpr void fields(auto& self, auto& io) {
    io(self.status);
    if (self.status != NfsStat::kOk) return;
    io.skip_word(1);  // handle follows
    io(self.fh, self.attr);
  }
};

struct MkdirArgs final : rpc::XdrMessage<MkdirArgs> {
  Fh dir;
  std::string name;
  Sattr sattr;
  static constexpr void fields(auto& self, auto& io) { io(self.dir, self.name, self.sattr); }
};

using MkdirRes = CreateRes;

struct SymlinkArgs final : rpc::XdrMessage<SymlinkArgs> {
  Fh dir;
  std::string name;
  std::string target;
  static constexpr void fields(auto& self, auto& io) { io(self.dir, self.name, self.target); }
};

using SymlinkRes = CreateRes;

struct RemoveArgs final : rpc::XdrMessage<RemoveArgs> {
  Fh dir;
  std::string name;
  static constexpr void fields(auto& self, auto& io) { io(self.dir, self.name); }
};

struct RemoveRes final : rpc::XdrMessage<RemoveRes> {
  NfsStat status = NfsStat::kOk;
  PostOpAttr dir_attr;
  static constexpr void fields(auto& self, auto& io) { io(self.status, self.dir_attr); }
};

struct RenameArgs final : rpc::XdrMessage<RenameArgs> {
  Fh from_dir;
  std::string from_name;
  Fh to_dir;
  std::string to_name;
  static constexpr void fields(auto& self, auto& io) {
    io(self.from_dir, self.from_name, self.to_dir, self.to_name);
  }
};

using RenameRes = RemoveRes;

struct LinkArgs final : rpc::XdrMessage<LinkArgs> {
  Fh file;
  Fh dir;
  std::string name;
  static constexpr void fields(auto& self, auto& io) { io(self.file, self.dir, self.name); }
};

struct LinkRes final : rpc::XdrMessage<LinkRes> {
  NfsStat status = NfsStat::kOk;
  PostOpAttr file_attr;
  PostOpAttr dir_attr;
  static constexpr void fields(auto& self, auto& io) {
    io(self.status, self.file_attr, self.dir_attr);
  }
};

struct ReaddirArgs final : rpc::XdrMessage<ReaddirArgs> {
  Fh dir;
  u64 cookie = 0;
  u32 max_count = 4096;
  static constexpr void fields(auto& self, auto& io) {
    io(self.dir, self.cookie);
    io.skip_hyper(0);  // cookie verifier
    io(self.max_count);
  }
};

struct ReaddirRes final : rpc::XdrMessage<ReaddirRes> {
  struct Entry {
    u64 fileid = 0;
    std::string name;
    u64 cookie = 0;
    static constexpr void fields(auto& self, auto& io) { io(self.fileid, self.name, self.cookie); }
  };
  NfsStat status = NfsStat::kOk;
  PostOpAttr dir_attr;
  std::vector<Entry> entries;
  bool eof = true;
  static constexpr void fields(auto& self, auto& io) {
    io(self.status, self.dir_attr);
    io.skip_hyper(0);  // cookie verifier
    io(self.entries, self.eof);
  }
};

// READDIRPLUS (proc 17): directory entries with handles and attributes, so
// one round trip primes the client's dentry and attribute caches.
struct ReaddirplusArgs final : rpc::XdrMessage<ReaddirplusArgs> {
  Fh dir;
  u64 cookie = 0;
  u32 dircount = 4096;
  u32 maxcount = 32768;
  static constexpr void fields(auto& self, auto& io) {
    io(self.dir, self.cookie);
    io.skip_hyper(0);  // cookie verifier
    io(self.dircount, self.maxcount);
  }
};

struct ReaddirplusRes final : rpc::XdrMessage<ReaddirplusRes> {
  struct Entry {
    u64 fileid = 0;
    std::string name;
    u64 cookie = 0;
    PostOpAttr attr;
    Fh fh;
    static constexpr void fields(auto& self, auto& io) {
      io(self.fileid, self.name, self.cookie, self.attr);
      io.skip_word(1);  // handle follows
      io(self.fh);
    }
  };
  NfsStat status = NfsStat::kOk;
  PostOpAttr dir_attr;
  std::vector<Entry> entries;
  bool eof = true;
  static constexpr void fields(auto& self, auto& io) {
    io(self.status, self.dir_attr);
    io.skip_hyper(0);  // cookie verifier
    io(self.entries, self.eof);
  }
};

struct PathconfRes final : rpc::XdrMessage<PathconfRes> {
  NfsStat status = NfsStat::kOk;
  PostOpAttr attr;
  u32 linkmax = 32000;
  u32 name_max = 255;
  static constexpr void fields(auto& self, auto& io) {
    io(self.status, self.attr);
    if (self.status != NfsStat::kOk) return;
    io(self.linkmax, self.name_max);
    io.skip_word(1);  // no_trunc
    io.skip_word(0);  // chown_restricted
    io.skip_word(1);  // case_insensitive = false... case_sensitive fs
    io.skip_word(1);  // case_preserving
  }
};

struct FsstatRes final : rpc::XdrMessage<FsstatRes> {
  NfsStat status = NfsStat::kOk;
  PostOpAttr attr;
  u64 total_bytes = 0;
  u64 free_bytes = 0;
  u64 total_files = 0;
  static constexpr void fields(auto& self, auto& io) {
    io(self.status, self.attr);
    if (self.status != NfsStat::kOk) return;
    io(self.total_bytes, self.free_bytes);
    io.skip_hyper(self.free_bytes);  // available
    io(self.total_files);
    io.skip_hyper(0);  // free files
    io.skip_hyper(0);  // available files
    io.skip_hyper(0);  // combined remaining fields
    io.skip_word(0);   // invarsec
  }
};

struct FsinfoRes final : rpc::XdrMessage<FsinfoRes> {
  NfsStat status = NfsStat::kOk;
  PostOpAttr attr;
  u32 rtmax = kMaxBlockSize;
  u32 wtmax = kMaxBlockSize;
  u32 rtpref = kMaxBlockSize;
  u32 wtpref = kMaxBlockSize;
  static constexpr void fields(auto& self, auto& io) {
    io(self.status, self.attr);
    if (self.status != NfsStat::kOk) return;
    io(self.rtmax, self.rtpref);
    io.skip_word(512);  // rtmult
    io(self.wtmax, self.wtpref);
    io.skip_word(512);          // wtmult
    io.skip_word(4096);         // dtpref
    io.skip_word(0);            // maxfilesize hi
    io.skip_word(0xffffffffu);  // maxfilesize lo
    io.skip_word(0);            // time_delta sec
    io.skip_word(1);            // time_delta nsec
    io.skip_word(0x1b);         // properties
  }
};

struct CommitArgs final : rpc::XdrMessage<CommitArgs> {
  Fh fh;
  u64 offset = 0;
  u32 count = 0;
  static constexpr void fields(auto& self, auto& io) { io(self.fh, self.offset, self.count); }
};

struct CommitRes final : rpc::XdrMessage<CommitRes> {
  NfsStat status = NfsStat::kOk;
  PostOpAttr attr;
  u64 verifier = 0;
  static constexpr void fields(auto& self, auto& io) {
    io(self.status, self.attr);
    if (self.status == NfsStat::kOk) io(self.verifier);
  }
};

// --------------------------------------------------------------------------
// GVFS lease extension (DESIGN.md §5.10).
//
// LEASE_ACQUIRE / LEASE_RELEASE ride the NFS program (procs 22/23); the
// server-to-proxy recall travels the dedicated callback program below, back
// through the node's decorated channel stack (tunnel/fault/retry in
// reverse), so recalls are subject to the same loss and retransmission
// semantics as forward traffic.

enum class LeaseMode : u32 { kRead = 0, kWrite = 1 };

// Callback program number: a private-use slot well clear of the IANA RPC
// programs we model (100003/100005).
constexpr u32 kLeaseCallbackProgram = 200103;
constexpr u32 kLeaseCallbackVersion = 1;

enum class CallbackProc : u32 { kNull = 0, kRecall = 1 };

struct LeaseArgs final : rpc::XdrMessage<LeaseArgs> {
  Fh fh;
  u64 client_id = 0;  // stable per-proxy identity (testbed: node index + 1)
  LeaseMode mode = LeaseMode::kRead;
  static constexpr void fields(auto& self, auto& io) { io(self.fh, self.client_id, self.mode); }
};

struct LeaseRes final : rpc::XdrMessage<LeaseRes> {
  NfsStat status = NfsStat::kOk;
  // kOk + !granted means "conflict being recalled, retry later" — the
  // NFSv4 NFS4ERR_DELAY shape, so the server never blocks an nfsd thread
  // on a callback round trip.
  bool granted = false;
  SimTime expiry = 0;  // absolute virtual time the grant lapses
  u32 holders = 0;     // holders sharing the file after this grant
  static constexpr void fields(auto& self, auto& io) {
    io(self.status, self.granted, self.expiry, self.holders);
  }
};

struct LeaseReleaseArgs final : rpc::XdrMessage<LeaseReleaseArgs> {
  Fh fh;
  u64 client_id = 0;
  static constexpr void fields(auto& self, auto& io) { io(self.fh, self.client_id); }
};

struct LeaseReleaseRes final : rpc::XdrMessage<LeaseReleaseRes> {
  NfsStat status = NfsStat::kOk;
  static constexpr void fields(auto& self, auto& io) { io(self.status); }
};

// Server -> proxy recall (callback program, proc kRecall).
struct RecallArgs final : rpc::XdrMessage<RecallArgs> {
  Fh fh;
  u64 client_id = 0;        // the holder being recalled
  LeaseMode contender = LeaseMode::kWrite;  // mode the new claimant wants
  static constexpr void fields(auto& self, auto& io) {
    io(self.fh, self.client_id, self.contender);
  }
};

struct RecallRes final : rpc::XdrMessage<RecallRes> {
  NfsStat status = NfsStat::kOk;
  bool flushed = false;  // the proxy had dirty state to push before replying
  static constexpr void fields(auto& self, auto& io) { io(self.status, self.flushed); }
};

// MOUNT program (RFC 1813 appendix): MNT returns the export's root handle.
enum class MountProc : u32 { kNull = 0, kMnt = 1, kUmnt = 3 };

struct MountArgs final : rpc::XdrMessage<MountArgs> {
  std::string dirpath;
  static constexpr void fields(auto& self, auto& io) { io(self.dirpath); }
};

struct MountRes final : rpc::XdrMessage<MountRes> {
  NfsStat status = NfsStat::kOk;
  Fh root;
  static constexpr void fields(auto& self, auto& io) {
    io(self.status);
    if (self.status == NfsStat::kOk) io(self.root);
  }
};

// --------------------------------------------------------------------------
// The NFS procedure table.

// How ShardRouter spreads a call over a replicated origin cluster
// (DESIGN.md §5.7).
enum class Route : u8 {
  kAnyOrigin,    // the lowest-indexed live origin
  kReadOne,      // one live replica of the handle's shard, lowest EWMA first
  kQuorumWrite,  // every live replica of the handle's shard, serialized
  kBroadcast,    // every origin, so all hold the namespace and ids align
};

// A procedure as the duplicate request cache and the router look it up.
struct ProcInfo {
  const char* name = "?";
  bool idempotent = true;  // false: the DRC replays the first reply
  Route route = Route::kAnyOrigin;
  Fh (*handle)(const rpc::Message& args) = nullptr;  // null: names no file
};

// One row of kNfsProcTable: the procedure, its wire name, whether a
// retransmission may simply run again, its routing class, its argument and
// result types and the file its call names (`Handle`, a pointer to an Fh
// member of Args, or nullptr).
template <class A, class R, auto Handle = nullptr>
struct ProcRow {
  using Args = A;
  using Res = R;
  Proc proc;
  const char* name;
  bool idempotent;
  Route route;

  [[nodiscard]] constexpr ProcInfo info() const {
    ProcInfo i{name, idempotent, route, nullptr};
    if constexpr (Handle != nullptr) {
      i.handle = [](const rpc::Message& m) {
        const auto* a = dynamic_cast<const A*>(&m);
        return a != nullptr ? a->*Handle : Fh{};
      };
    }
    return i;
  }
};

constexpr bool kIdempotent = true;
constexpr bool kReplayed = false;

inline constexpr std::tuple kNfsProcTable{
    ProcRow<VoidMsg, VoidMsg>{Proc::kNull, "NULL", kIdempotent, Route::kAnyOrigin},
    ProcRow<GetattrArgs, GetattrRes, &GetattrArgs::fh>{
        Proc::kGetattr, "GETATTR", kIdempotent, Route::kReadOne},
    ProcRow<SetattrArgs, SetattrRes, &SetattrArgs::fh>{
        Proc::kSetattr, "SETATTR", kReplayed, Route::kBroadcast},
    ProcRow<LookupArgs, LookupRes, &LookupArgs::dir>{
        Proc::kLookup, "LOOKUP", kIdempotent, Route::kReadOne},
    ProcRow<AccessArgs, AccessRes, &AccessArgs::fh>{
        Proc::kAccess, "ACCESS", kIdempotent, Route::kReadOne},
    ProcRow<ReadlinkArgs, ReadlinkRes, &ReadlinkArgs::fh>{
        Proc::kReadlink, "READLINK", kIdempotent, Route::kReadOne},
    ProcRow<ReadArgs, ReadRes, &ReadArgs::fh>{
        Proc::kRead, "READ", kIdempotent, Route::kReadOne},
    ProcRow<WriteArgs, WriteRes, &WriteArgs::fh>{
        Proc::kWrite, "WRITE", kReplayed, Route::kQuorumWrite},
    ProcRow<CreateArgs, CreateRes, &CreateArgs::dir>{
        Proc::kCreate, "CREATE", kReplayed, Route::kBroadcast},
    ProcRow<MkdirArgs, MkdirRes, &MkdirArgs::dir>{
        Proc::kMkdir, "MKDIR", kReplayed, Route::kBroadcast},
    ProcRow<SymlinkArgs, SymlinkRes, &SymlinkArgs::dir>{
        Proc::kSymlink, "SYMLINK", kReplayed, Route::kBroadcast},
    ProcRow<RemoveArgs, RemoveRes, &RemoveArgs::dir>{
        Proc::kRemove, "REMOVE", kReplayed, Route::kBroadcast},
    ProcRow<RemoveArgs, RemoveRes, &RemoveArgs::dir>{
        Proc::kRmdir, "RMDIR", kReplayed, Route::kBroadcast},
    ProcRow<RenameArgs, RenameRes, &RenameArgs::from_dir>{
        Proc::kRename, "RENAME", kReplayed, Route::kBroadcast},
    ProcRow<LinkArgs, LinkRes, &LinkArgs::file>{
        Proc::kLink, "LINK", kReplayed, Route::kBroadcast},
    ProcRow<ReaddirArgs, ReaddirRes, &ReaddirArgs::dir>{
        Proc::kReaddir, "READDIR", kIdempotent, Route::kReadOne},
    ProcRow<ReaddirplusArgs, ReaddirplusRes, &ReaddirplusArgs::dir>{
        Proc::kReaddirplus, "READDIRPLUS", kIdempotent, Route::kReadOne},
    ProcRow<GetattrArgs, FsstatRes>{Proc::kFsstat, "FSSTAT", kIdempotent,
                                    Route::kAnyOrigin},
    ProcRow<GetattrArgs, FsinfoRes>{Proc::kFsinfo, "FSINFO", kIdempotent,
                                    Route::kAnyOrigin},
    ProcRow<GetattrArgs, PathconfRes, &GetattrArgs::fh>{
        Proc::kPathconf, "PATHCONF", kIdempotent, Route::kReadOne},
    ProcRow<CommitArgs, CommitRes, &CommitArgs::fh>{
        Proc::kCommit, "COMMIT", kIdempotent, Route::kQuorumWrite},
    // Lease state lives on the home shard, so LEASE_ACQUIRE/RELEASE fan out
    // to the shard's replicas like writes: serialized under the shard write
    // lock and journaled for dead replicas, so a replay keeps lease order.
    ProcRow<LeaseArgs, LeaseRes, &LeaseArgs::fh>{
        Proc::kLeaseAcquire, "LEASE_ACQUIRE", kIdempotent, Route::kQuorumWrite},
    ProcRow<LeaseReleaseArgs, LeaseReleaseRes, &LeaseReleaseArgs::fh>{
        Proc::kLeaseRelease, "LEASE_RELEASE", kIdempotent, Route::kQuorumWrite},
};

// kNfsProcTable indexed by procedure number, for lookups at run time. A
// number with no row (11, MKNOD, is not modeled) reads as ProcInfo{}.
inline constexpr auto kNfsProcs = std::apply(
    [](const auto&... row) {
      std::array<ProcInfo, static_cast<u32>(Proc::kLeaseRelease) + 1> t{};
      ((t[static_cast<u32>(row.proc)] = row.info()), ...);
      return t;
    },
    kNfsProcTable);

inline constexpr ProcInfo kNoProc{};

constexpr const ProcInfo& proc_info(u32 proc) {
  return proc < kNfsProcs.size() ? kNfsProcs[proc] : kNoProc;
}

// Wire-procedure name (trace spans, diagnostics).
constexpr const char* proc_name(Proc p) { return proc_info(static_cast<u32>(p)).name; }

// The file an NFS call names; invalid for other programs and for
// procedures that name none.
inline Fh call_handle(const rpc::RpcCall& call) {
  const ProcInfo& info = proc_info(call.proc);
  if (call.prog != rpc::kNfsProgram || info.handle == nullptr || !call.args) return {};
  return info.handle(*call.args);
}

}  // namespace gvfs::nfs
