// Base for the test suite's stub RPC channels that act on one call at a time.
#pragma once

#include <span>

#include "rpc/rpc.h"

namespace gvfs::tests {

// Answers a burst call by call, in order, through on_call(): a stub that
// injects a fault into one call, or passes each call on to an inner
// channel, serves bursts the way it serves single calls.
struct PerCallChannel : rpc::RpcChannel {
  void send(sim::Process& p, std::span<const rpc::RpcCall> calls,
            std::span<rpc::RpcReply> replies) final {
    for (std::size_t i = 0; i < calls.size(); ++i) replies[i] = on_call(p, calls[i]);
  }
  virtual rpc::RpcReply on_call(sim::Process& p, const rpc::RpcCall& c) = 0;
};

}  // namespace gvfs::tests
