#include "rpc/rpc.h"

#include <algorithm>

namespace gvfs::rpc {

// -------------------------------------------------------------- Credential --

u64 Credential::wire_size() const {
  // flavor(4) + body-length(4) + body + NULL verifier (flavor 4 + len 4).
  u64 body = 0;
  if (flavor == AuthFlavor::kUnix) {
    body = xdr::size_u32()                 // stamp
           + xdr::size_string(machine.size())
           + xdr::size_u32() + xdr::size_u32()  // uid, gid
           + xdr::size_u32() + 4 * gids.size();  // gids array
  }
  return 4 + 4 + body + 8;
}

void Credential::encode(xdr::XdrEncoder& enc) const {
  enc.put_u32(static_cast<u32>(flavor));
  if (flavor == AuthFlavor::kUnix) {
    xdr::XdrEncoder body;
    body.put_u32(stamp);
    body.put_string(machine);
    body.put_u32(uid);
    body.put_u32(gid);
    body.put_u32(static_cast<u32>(gids.size()));
    for (u32 g : gids) body.put_u32(g);
    enc.put_opaque(body.bytes());
  } else {
    enc.put_u32(0);  // empty body
  }
  // NULL verifier.
  enc.put_u32(0);
  enc.put_u32(0);
}

Result<Credential> Credential::decode(xdr::XdrDecoder& dec) {
  Credential c;
  c.flavor = static_cast<AuthFlavor>(dec.get_u32());
  std::span<const u8> body = dec.get_opaque_view();  // aliases the wire buffer
  if (c.flavor == AuthFlavor::kUnix) {
    xdr::XdrDecoder b(body);
    c.stamp = b.get_u32();
    c.machine = b.get_string();
    c.uid = b.get_u32();
    c.gid = b.get_u32();
    u32 n = b.get_u32();
    if (n > 16) return err(ErrCode::kAuthError, "too many groups");
    for (u32 i = 0; i < n; ++i) c.gids.push_back(b.get_u32());
    if (!b.ok()) return err(ErrCode::kBadXdr, "credential body");
  }
  dec.get_u32();  // verifier flavor
  (void)dec.get_opaque_view();  // skip verifier body without copying
  if (!dec.ok()) return err(ErrCode::kBadXdr, "credential");
  return c;
}

// ----------------------------------------------------------------- RpcCall --

u64 RpcCall::wire_size() const {
  // xid, msg_type, rpcvers, prog, vers, proc = 6 words.
  u64 header = 6 * xdr::size_u32() + cred.wire_size();
  u64 body = args ? args->wire_size() : 0;
  return kRecordMarkBytes + header + body;
}

void RpcCall::encode_header(xdr::XdrEncoder& enc) const {
  enc.put_u32(xid);
  enc.put_u32(0);  // CALL
  enc.put_u32(kRpcVersion);
  enc.put_u32(prog);
  enc.put_u32(vers);
  enc.put_u32(proc);
  cred.encode(enc);
}

u64 RpcReply::wire_size() const {
  // xid, msg_type, reply_stat, verifier(8), accept_stat = 24 bytes.
  u64 header = 3 * xdr::size_u32() + 8 + xdr::size_u32();
  u64 body = result ? result->wire_size() : 0;
  return kRecordMarkBytes + header + body;
}

// ------------------------------------------------------------- LinkChannel --

void LinkChannel::send(sim::Process& p, std::span<const RpcCall> calls,
                       std::span<RpcReply> replies) {
  for (std::size_t i = 0; i < calls.size(); ++i) {
    calls_.inc();
    if (per_call_cpu_ > 0) p.delay(per_call_cpu_);
    // Requests stream back-to-back; only the first pays propagation (the
    // rest are in flight behind it).
    if (to_server_ != nullptr) {
      to_server_->transmit_ex(p, calls[i].wire_size(), i == 0);
    }
    replies[i] = handler_.handle(p, calls[i]);
    // Replies likewise overlap; the last one pays the return propagation.
    if (to_client_ != nullptr) {
      to_client_->transmit_ex(p, replies[i].wire_size(), i + 1 == calls.size());
    }
  }
}

RpcReply make_reply(const RpcCall& call, MessagePtr result) {
  RpcReply r;
  r.xid = call.xid;
  r.status = Status::ok();
  r.result = std::move(result);
  return r;
}

RpcReply make_error_reply(const RpcCall& call, Status st) {
  RpcReply r;
  r.xid = call.xid;
  r.status = std::move(st);
  return r;
}

}  // namespace gvfs::rpc
