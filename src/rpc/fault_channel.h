// FaultyChannel: an RpcChannel decorator that subjects calls to a
// FaultInjector's schedule (sim/faults.h).
//
// Semantics in the synchronous simulation model:
//   * request dropped  -> the server never executes the call; the caller gets
//     a kTimeout reply immediately (its retransmission layer owns the RTO
//     wait — see RetryChannel);
//   * reply dropped    -> the inner call runs to completion (the server DID
//     execute the operation, charging full request + service time), then the
//     reply is discarded and kTimeout returned. Retransmitting a
//     non-idempotent op after this is exactly what the server-side duplicate
//     request cache exists for;
//   * server crash window -> as request-drop; the first traffic after the
//     window fires the injector's restart callback (reboot: volatile server
//     state cleared by whoever registered it).
#pragma once

#include "common/trace.h"
#include "rpc/rpc.h"
#include "sim/faults.h"

namespace gvfs::rpc {

class FaultyChannel final : public RpcChannel {
 public:
  // `server_id` names the origin this channel leads to (0 for the single
  // origin); crash windows scoped to another server
  // (sim::FaultWindow::server) leave this path untouched.
  FaultyChannel(RpcChannel& inner, sim::FaultInjector& faults, int server_id)
      : inner_(inner), faults_(faults), server_id_(server_id) {}

  RpcReply call(sim::Process& p, const RpcCall& call) override;
  std::vector<RpcReply> call_pipelined(sim::Process& p,
                                       const std::vector<RpcCall>& calls) override;

  [[nodiscard]] sim::FaultInjector& injector() { return faults_; }

  // Annotate injected losses onto the caller's open trace span.
  void set_tracer(trace::RpcTracer* t) { tracer_ = t; }

 private:
  RpcChannel& inner_;
  sim::FaultInjector& faults_;
  int server_id_;
  trace::RpcTracer* tracer_ = nullptr;
};

}  // namespace gvfs::rpc
