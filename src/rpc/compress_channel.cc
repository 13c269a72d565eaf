#include "rpc/compress_channel.h"

namespace gvfs::rpc {

namespace {

// Modeled savings for a message's bulk payload: raw minus blob-modeled
// compressed size. The compressed_size contract clamps to raw, so savings
// are never negative; 0 means "not worth wrapping".
u64 payload_savings(const MessagePtr& m, u64* raw_out) {
  const blob::Blob* payload = m ? m->bulk_payload() : nullptr;
  if (payload == nullptr) return 0;
  u64 raw = payload->size();
  u64 compressed = payload->compressed_size(0, raw);
  if (raw_out != nullptr) *raw_out = raw;
  return raw > compressed ? raw - compressed : 0;
}

}  // namespace

void CompressStats::charge(sim::Process& p, const CompressConfig& cfg, u64 bytes,
                           double bps) {
  SimDuration work = transfer_time(bytes, bps);
  cpu_time_ += work;
  cpu_ms_.set(static_cast<u64>(cpu_time_ / kMillisecond));
  if (cfg.cpu != nullptr) {
    cfg.cpu->run(p, work);
  } else {
    p.delay(work);
  }
}

RpcCall CompressChannel::wrap_call_(sim::Process& p, const RpcCall& call) {
  u64 raw = 0;
  u64 saved = payload_savings(call.args, &raw);
  if (saved == 0) return call;
  stats_.count(raw, raw - saved);
  stats_.charge(p, cfg_, raw, cfg_.compress_bps);
  RpcCall c = call;
  c.args = std::make_shared<CompressedMessage>(call.args, saved);
  return c;
}

void CompressChannel::unwrap_reply_(sim::Process& p, RpcReply& reply) {
  if (!reply.status.is_ok() || !reply.result) return;
  auto cm = message_cast<CompressedMessage>(reply.result);
  if (!cm) return;
  const blob::Blob* payload = cm->bulk_payload();
  stats_.charge(p, cfg_, payload ? payload->size() : 0, cfg_.inflate_bps);
  reply.result = cm->inner();
}

void CompressChannel::send(sim::Process& p, std::span<const RpcCall> calls,
                           std::span<RpcReply> replies) {
  // Requests are compressed serially on this end's CPU before the burst
  // ships; the round trips below still overlap. A single call's wrapped copy
  // stays on the stack.
  if (calls.size() == 1) {
    const RpcCall wrapped = wrap_call_(p, calls[0]);
    next_.send(p, {&wrapped, 1}, replies);
  } else {
    std::vector<RpcCall> wrapped;
    wrapped.reserve(calls.size());
    for (const RpcCall& c : calls) wrapped.push_back(wrap_call_(p, c));
    next_.send(p, wrapped, replies);
  }
  for (RpcReply& r : replies) unwrap_reply_(p, r);
}

RpcReply CompressHandler::handle(sim::Process& p, const RpcCall& call) {
  RpcCall c = call;
  if (auto cm = call.args ? message_cast<CompressedMessage>(call.args) : nullptr) {
    const blob::Blob* payload = cm->bulk_payload();
    stats_.charge(p, cfg_, payload ? payload->size() : 0, cfg_.inflate_bps);
    c.args = cm->inner();
  }
  RpcReply reply = upstream_.handle(p, c);
  u64 raw = 0;
  u64 saved = reply.status.is_ok() ? payload_savings(reply.result, &raw) : 0;
  if (saved > 0) {
    stats_.count(raw, raw - saved);
    stats_.charge(p, cfg_, raw, cfg_.compress_bps);
    reply.result = std::make_shared<CompressedMessage>(reply.result, saved);
  }
  return reply;
}

}  // namespace gvfs::rpc
