#include "rpc/retry_channel.h"

#include <algorithm>

namespace gvfs::rpc {

constexpr SimDuration kMaxTimeout = 60 * kSecond;  // RTO back-off ceiling

RpcReply RetryChannel::call(sim::Process& p, const RpcCall& call) {
  SimTime sent_at = p.now();
  RpcReply reply = inner_.call(p, call);
  return finish_(p, call, sent_at, std::move(reply));
}

std::vector<RpcReply> RetryChannel::call_pipelined(sim::Process& p,
                                                   const std::vector<RpcCall>& calls) {
  // The whole batch goes out at once; every entry shares the batch send time
  // as the start of its first RTO. Timed-out entries are then retried
  // serially through the same loop as single calls — the pipelined fast path
  // is the common (fault-free) case.
  SimTime batch_sent = p.now();
  std::vector<RpcReply> replies = inner_.call_pipelined(p, calls);
  for (std::size_t i = 0; i < replies.size(); ++i) {
    replies[i] = finish_(p, calls[i], batch_sent, std::move(replies[i]));
  }
  return replies;
}

RpcReply RetryChannel::finish_(sim::Process& p, const RpcCall& call,
                               SimTime sent_at, RpcReply reply) {
  SimDuration rto = cfg_.timeout;
  u32 attempts = 0;
  for (;;) {
    if (reply.status.code() != ErrCode::kTimeout) {
      if (reply.status.is_ok() && reply.xid != call.xid) {
        xid_mismatches_.inc();
        if (tracer_) tracer_->annotate(&p, "retry", "xid_mismatch", p.now());
        return make_error_reply(call, err(ErrCode::kBadXdr, "reply xid mismatch"));
      }
      return reply;
    }
    timeouts_.inc();
    if (cfg_.max_retransmits > 0 && attempts >= cfg_.max_retransmits) {
      exhausted_.inc();
      if (tracer_) tracer_->annotate(&p, "retry", "exhausted", p.now());
      return reply;
    }
    ++attempts;
    retransmits_.inc();
    // The client sat on the RTO before concluding loss; a dropped reply may
    // already have consumed part of it (the inner call blocked for the full
    // round trip before the loss was injected).
    SimDuration elapsed = p.now() - sent_at;
    SimDuration wait = rto > elapsed ? rto - elapsed : 0;
    if (cfg_.jitter > 0.0) {
      wait += static_cast<SimDuration>(kernel_.rng().next_double() * cfg_.jitter *
                                       static_cast<double>(rto));
    }
    rto_wait_ms_.observe(static_cast<double>(wait) /
                         static_cast<double>(kMillisecond));
    if (wait > 0) p.delay(wait);
    rto = std::min<SimDuration>(kMaxTimeout,
                                static_cast<SimDuration>(static_cast<double>(rto) *
                                                         cfg_.backoff));
    if (tracer_) {
      tracer_->annotate(&p, "retry", "retransmit#" + std::to_string(attempts),
                        p.now());
    }
    sent_at = p.now();
    reply = inner_.call(p, call);
  }
}

}  // namespace gvfs::rpc
