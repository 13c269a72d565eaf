// ONC RPC layer tests: credential codec, message wire sizing, dispatcher
// routing, and channel timing across simulated links.
#include <gtest/gtest.h>

#include "rpc/rpc.h"
#include "sim/kernel.h"
#include "sim/resources.h"
#include "xdr/xdr.h"

namespace gvfs::rpc {
namespace {

// Minimal message with a declared body size.
struct Ping final : Message {
  explicit Ping(u64 n) : n_(n) {}
  [[nodiscard]] u64 wire_size() const override { return n_; }
  void encode(xdr::XdrEncoder& enc) const override {
    for (u64 i = 0; i < n_ / 4; ++i) enc.put_u32(0);
  }
  u64 n_;
};

class Echo final : public RpcHandler {
 public:
  RpcReply handle(sim::Process&, const RpcCall& call) override {
    last_cred = call.cred;
    ++calls;
    return make_reply(call, call.args);
  }
  Credential last_cred;
  int calls = 0;
};

TEST(Credential, RoundTrip) {
  Credential c;
  c.stamp = 77;
  c.machine = "compute-1";
  c.uid = 1000;
  c.gid = 1000;
  c.gids = {100, 200};
  xdr::XdrEncoder enc;
  c.encode(enc);
  EXPECT_EQ(enc.size(), c.wire_size());
  xdr::XdrDecoder dec(enc.bytes());
  auto back = Credential::decode(dec);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, c);
}

TEST(Credential, AuthNoneRoundTrip) {
  Credential c;
  c.flavor = AuthFlavor::kNone;
  xdr::XdrEncoder enc;
  c.encode(enc);
  EXPECT_EQ(enc.size(), c.wire_size());
  xdr::XdrDecoder dec(enc.bytes());
  auto back = Credential::decode(dec);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back->flavor, AuthFlavor::kNone);
}

TEST(Credential, TooManyGroupsRejected) {
  Credential c;
  c.gids.assign(32, 1);
  xdr::XdrEncoder enc;
  c.encode(enc);
  xdr::XdrDecoder dec(enc.bytes());
  EXPECT_FALSE(Credential::decode(dec).is_ok());
}

TEST(RpcCall, WireSizeIncludesHeaderCredAndBody) {
  RpcCall call;
  call.args = std::make_shared<Ping>(100);
  u64 size = call.wire_size();
  // record mark + 6 header words + cred + body.
  EXPECT_EQ(size, kRecordMarkBytes + 24 + call.cred.wire_size() + 100);
}

TEST(RpcReply, WireSize) {
  RpcReply r;
  r.result = std::make_shared<Ping>(64);
  // xid + msg_type + reply_stat (12) + verifier (8) + accept_stat (4).
  EXPECT_EQ(r.wire_size(), kRecordMarkBytes + 24 + 64);
}

TEST(LinkChannel, LoopbackChargesOnlyCpu) {
  sim::SimKernel k;
  Echo echo;
  LinkChannel ch(echo, nullptr, nullptr, from_millis(1));
  k.run_process("p", [&](sim::Process& p) {
    RpcCall call;
    call.args = std::make_shared<Ping>(1000);
    RpcReply reply = ch.call(p, call);
    EXPECT_TRUE(reply.status.is_ok());
    EXPECT_EQ(p.now(), from_millis(1));
  });
  EXPECT_EQ(ch.calls(), 1u);
  EXPECT_EQ(echo.calls, 1);
}

TEST(LinkChannel, ChargesBothDirections) {
  sim::SimKernel k;
  Echo echo;
  sim::Link up(k, "up", sim::LinkConfig{from_millis(10), static_cast<double>(1_MiB), 64_KiB, 0});
  sim::Link down(k, "down", sim::LinkConfig{from_millis(10), static_cast<double>(1_MiB), 64_KiB, 0});
  LinkChannel ch(echo, &up, &down, 0);
  k.run_process("p", [&](sim::Process& p) {
    RpcCall call;
    call.args = std::make_shared<Ping>(0);
    ch.call(p, call);
    // Two propagation delays plus small serialization.
    EXPECT_GE(p.now(), 2 * from_millis(10));
    EXPECT_LT(p.now(), 2 * from_millis(10) + from_millis(5));
  });
  EXPECT_GT(up.bytes_sent(), 0u);
  EXPECT_GT(down.bytes_sent(), 0u);
}

TEST(LinkChannel, PipelinedPaysLatencyOnce) {
  sim::SimKernel k;
  Echo echo;
  sim::Link up(k, "up", sim::LinkConfig{from_millis(20), 1e9, 64_KiB, 0});
  sim::Link down(k, "down", sim::LinkConfig{from_millis(20), 1e9, 64_KiB, 0});
  LinkChannel ch(echo, &up, &down, 0);
  k.run_process("p", [&](sim::Process& p) {
    std::vector<RpcCall> calls(8);
    for (auto& c : calls) c.args = std::make_shared<Ping>(64);
    auto replies = ch.call_pipelined(p, calls);
    EXPECT_EQ(replies.size(), 8u);
    // Serial would be 8 * 40 ms = 320 ms; pipelined ~= 40 ms.
    EXPECT_LT(p.now(), from_millis(60));
  });
}

TEST(Reply, ErrorReplyHasNoResult) {
  RpcCall call;
  call.xid = 55;
  RpcReply r = make_error_reply(call, err(ErrCode::kAuthError));
  EXPECT_EQ(r.xid, 55u);
  EXPECT_FALSE(r.status.is_ok());
  EXPECT_EQ(r.result, nullptr);
}

TEST(MessageCast, DowncastsAndRejects) {
  MessagePtr m = std::make_shared<Ping>(4);
  EXPECT_NE(message_cast<Ping>(m), nullptr);
  struct Other final : Message {
    u64 wire_size() const override { return 0; }
    void encode(xdr::XdrEncoder&) const override {}
  };
  MessagePtr o = std::make_shared<Other>();
  EXPECT_EQ(message_cast<Ping>(o), nullptr);
}

}  // namespace
}  // namespace gvfs::rpc
