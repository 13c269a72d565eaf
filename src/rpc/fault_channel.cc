#include "rpc/fault_channel.h"

#include <vector>

namespace gvfs::rpc {

void FaultyChannel::send(sim::Process& p, std::span<const RpcCall> calls,
                         std::span<RpcReply> replies) {
  faults_.fire_restarts_due(p.now(), server_id_);
  // Decide request losses up front, in call order. A lost call's reply is
  // its timeout; a surviving call's slot is cleared (status ok) until the
  // inner channel answers it.
  std::size_t lost = 0;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    if (faults_.drop_request(p.now(), server_id_)) {
      if (tracer_) tracer_->annotate(&p, "fault", "request_dropped", p.now());
      replies[i] = make_error_reply(calls[i], err(ErrCode::kTimeout, "request lost"));
      ++lost;
    } else {
      replies[i] = {};
    }
  }
  if (lost == calls.size()) return;
  // Only the surviving calls reach the inner channel, as one burst in call
  // order (the lost ones never occupied the server); replies are then lost
  // in that order.
  auto drop_reply = [&](std::size_t i) {
    if (!faults_.drop_reply(p.now())) return;
    if (tracer_) tracer_->annotate(&p, "fault", "reply_dropped", p.now());
    replies[i] = make_error_reply(calls[i], err(ErrCode::kTimeout, "reply lost"));
  };
  if (lost == 0) {
    inner_.send(p, calls, replies);
    for (std::size_t i = 0; i < calls.size(); ++i) drop_reply(i);
    return;
  }
  std::vector<std::size_t> live;
  std::vector<RpcCall> forwarded;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    if (!replies[i].status.is_ok()) continue;
    live.push_back(i);
    forwarded.push_back(calls[i]);
  }
  std::vector<RpcReply> inner(forwarded.size());
  inner_.send(p, forwarded, inner);
  for (std::size_t k = 0; k < live.size(); ++k) {
    replies[live[k]] = std::move(inner[k]);
    drop_reply(live[k]);
  }
}

}  // namespace gvfs::rpc
