#include "ssh/ssh.h"

#include <algorithm>

namespace gvfs::ssh {

SshTunnel::SshTunnel(rpc::RpcHandler& upstream, sim::Link* to_server,
                     sim::Link* to_client, CipherSpec spec)
    : upstream_(upstream), to_server_(to_server), to_client_(to_client), spec_(spec) {}

void SshTunnel::establish(sim::Process& p) {
  if (established_) return;
  p.delay(spec_.setup_time);
  established_ = true;
}

void SshTunnel::carry_(sim::Process& p, sim::Link* link, u64 bytes, bool propagate) {
  u64 framed = bytes + spec_.frame_overhead;
  bytes_.inc(framed);
  // Flow pacing (cipher + TCP window ceiling) applied as extra serial time,
  // interleaved chunk-wise with the shared-link occupancy.
  if (link == nullptr) {
    p.delay(transfer_time(framed, spec_.per_flow_bps));
    return;
  }
  u64 remaining = framed;
  while (remaining > 0) {
    u64 chunk = std::min<u64>(remaining, spec_.pacing_chunk);
    p.delay(transfer_time(chunk, spec_.per_flow_bps));
    link->transmit_ex(p, chunk, false);
    remaining -= chunk;
  }
  if (propagate && link->config().latency > 0) p.delay(link->config().latency);
}

void SshTunnel::send(sim::Process& p, std::span<const rpc::RpcCall> calls,
                     std::span<rpc::RpcReply> replies) {
  establish(p);
  // As on a LinkChannel, only the first request and the last reply pay
  // propagation.
  for (std::size_t i = 0; i < calls.size(); ++i) {
    messages_.inc();
    carry_(p, to_server_, calls[i].wire_size(), i == 0);
    replies[i] = upstream_.handle(p, calls[i]);
    carry_(p, to_client_, replies[i].wire_size(), i + 1 == calls.size());
  }
}

void Scp::transfer(sim::Process& p, u64 bytes, bool include_setup) {
  transfers_.inc();
  bytes_moved_.inc(bytes);
  // Parallel streams handshake concurrently: one setup latency.
  if (include_setup) p.delay(spec_.setup_time);
  // N flows pace in parallel (N x the per-flow ceiling); the shared link
  // still serializes aggregate bytes at its capacity.
  double pace_bps = spec_.per_flow_bps * static_cast<double>(streams_);
  u64 remaining = bytes;
  while (remaining > 0) {
    u64 chunk = std::min<u64>(remaining, spec_.pacing_chunk);
    p.delay(transfer_time(chunk, pace_bps));
    link_.transmit_ex(p, chunk, false);
    remaining -= chunk;
  }
  if (link_.config().latency > 0) p.delay(link_.config().latency);
}

}  // namespace gvfs::ssh
