// ONC RPC (RFC 1057) message layer.
//
// Calls and replies are structured objects whose bodies implement Message.
// Protocol bodies derive XdrMessage<T> and state their layout once, as an
// XDR field list (xdr/xdr.h); wire_size(), encode() and decode() all walk
// that list. The simulation transport charges link time from wire_size()
// and never encodes; tests encode to check the two agree.
// Channels are synchronous — RpcChannel::send blocks the calling simulation
// process for exactly the time the requests and replies spend on the network
// and in the servers, which is how the paper's NFS-over-WAN latencies arise.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/kernel.h"
#include "sim/resources.h"
#include "xdr/xdr.h"

namespace gvfs::blob {
class Blob;
}

namespace gvfs::rpc {

// Fixed protocol numbers (mirroring the real registry where it matters).
constexpr u32 kRpcVersion = 2;
constexpr u32 kNfsProgram = 100003;
constexpr u32 kNfsVersion3 = 3;
constexpr u32 kMountProgram = 100005;
constexpr u32 kMountVersion3 = 3;

// TCP record-marking adds a 4-byte fragment header per RPC message.
constexpr u64 kRecordMarkBytes = 4;

enum class AuthFlavor : u32 { kNone = 0, kUnix = 1 };

// AUTH_UNIX credential body (RFC 1057 §9.2). GVFS server-side proxies remap
// these onto short-lived shadow accounts (logical user accounts, §3.1).
struct Credential {
  AuthFlavor flavor = AuthFlavor::kUnix;
  u32 stamp = 0;
  std::string machine = "grid-client";
  u32 uid = 0;
  u32 gid = 0;
  std::vector<u32> gids;

  [[nodiscard]] u64 wire_size() const;  // flavor + length + body + verifier
  void encode(xdr::XdrEncoder& enc) const;
  static Result<Credential> decode(xdr::XdrDecoder& dec);

  bool operator==(const Credential& o) const {
    return flavor == o.flavor && uid == o.uid && gid == o.gid &&
           machine == o.machine && gids == o.gids;
  }
};

// Base for all RPC argument/result bodies.
class Message {
 public:
  virtual ~Message() = default;
  [[nodiscard]] virtual u64 wire_size() const = 0;
  virtual void encode(xdr::XdrEncoder& enc) const = 0;

  // The bulk data payload this message carries (READ results, WRITE args),
  // or nullptr for control messages. The modeled wire-compression stage
  // (rpc::CompressChannel) derives its byte savings and CPU cost from this
  // without knowing concrete NFS message types.
  [[nodiscard]] virtual const blob::Blob* bulk_payload() const { return nullptr; }
};

// Base of every message body declared as an XDR field list:
//
//   struct GetattrArgs final : rpc::XdrMessage<GetattrArgs> {
//     Fh fh;
//     static constexpr void fields(auto& self, auto& io) { io(self.fh); }
//   };
template <class T>
class XdrMessage : public Message {
 public:
  [[nodiscard]] u64 wire_size() const override {
    return xdr::size_of(static_cast<const T&>(*this));
  }
  void encode(xdr::XdrEncoder& enc) const override {
    xdr::encode(static_cast<const T&>(*this), enc);
  }
  static Result<T> decode(xdr::XdrDecoder& dec) { return xdr::decode<T>(dec); }
};

using MessagePtr = std::shared_ptr<const Message>;

// Downcast helper: handlers know the concrete type for each procedure.
template <typename T>
std::shared_ptr<const T> message_cast(const MessagePtr& m) {
  return std::dynamic_pointer_cast<const T>(m);
}

struct RpcCall {
  u32 xid = 0;
  u32 prog = 0;
  u32 vers = 0;
  u32 proc = 0;
  Credential cred;
  MessagePtr args;  // may be null (void args)

  // Record mark + call header + credential + body.
  [[nodiscard]] u64 wire_size() const;
  void encode_header(xdr::XdrEncoder& enc) const;
};

struct RpcReply {
  u32 xid = 0;
  Status status;      // transport/auth-level status; kOk = MSG_ACCEPTED+SUCCESS
  MessagePtr result;  // present iff status.is_ok() (procedure-level errors
                      // live inside the result body, as in real NFS)

  [[nodiscard]] u64 wire_size() const;
};

// Synchronous RPC transport abstraction. Implementations compose: an SSH
// tunnel wraps a link channel wraps a server, a proxy is itself a handler
// that owns an upstream channel.
//
// A channel implements one thing, a burst: several calls sent with their
// round trips overlapped (client-side read-ahead, write clustering), so
// link-crossing channels charge propagation once per burst. A single call is
// a burst of one.
class RpcChannel {
 public:
  virtual ~RpcChannel() = default;

  // Send `calls` as one burst; call i's reply lands in replies[i]
  // (`replies.size() == calls.size()`).
  virtual void send(sim::Process& p, std::span<const RpcCall> calls,
                    std::span<RpcReply> replies) = 0;

  // A burst of one, its call and reply on the caller's stack.
  RpcReply call(sim::Process& p, const RpcCall& c) {
    RpcReply reply;
    send(p, {&c, 1}, {&reply, 1});
    return reply;
  }
  // A burst into a fresh reply vector.
  std::vector<RpcReply> call_pipelined(sim::Process& p,
                                       const std::vector<RpcCall>& calls) {
    std::vector<RpcReply> replies(calls.size());
    send(p, calls, replies);
    return replies;
  }
};

// Server side: anything that can service a call.
class RpcHandler {
 public:
  virtual ~RpcHandler() = default;
  virtual RpcReply handle(sim::Process& p, const RpcCall& call) = 0;
};

// Channel crossing an (optionally asymmetric) pair of simulated links to
// reach a handler. Null links model same-host loopback at zero cost;
// `per_call_cpu` charges fixed end-host processing (syscall + context
// switches) per RPC.
class LinkChannel final : public RpcChannel {
 public:
  LinkChannel(RpcHandler& handler, sim::Link* to_server, sim::Link* to_client,
              SimDuration per_call_cpu = 0)
      : handler_(handler),
        to_server_(to_server),
        to_client_(to_client),
        per_call_cpu_(per_call_cpu) {}

  void send(sim::Process& p, std::span<const RpcCall> calls,
            std::span<RpcReply> replies) override;

  [[nodiscard]] u64 calls() const { return calls_.value(); }

 private:
  RpcHandler& handler_;
  sim::Link* to_server_;
  sim::Link* to_client_;
  SimDuration per_call_cpu_;
  metrics::Counter calls_;
};

// Helpers for building replies.
RpcReply make_reply(const RpcCall& call, MessagePtr result);
RpcReply make_error_reply(const RpcCall& call, Status st);

}  // namespace gvfs::rpc
