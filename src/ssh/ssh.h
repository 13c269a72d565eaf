// SSH-tunneled transport models: the private data channels GVFS proxies use
// for both block-based RPC forwarding and SCP file transfers (§3.2.2, §4.1).
//
// The decisive WAN behaviour captured here: a single SSH/TCP flow of the era
// is throughput-capped well below path capacity (64 KB TCP windows over a
// ~40 ms RTT cap a flow near 1.6 MB/s, and 3DES on a 1 GHz P3 is in the same
// range), while the Abilene path itself has far more aggregate capacity — so
// eight parallel cloning flows scale almost linearly (Table 1).
#pragma once

#include <algorithm>

#include "blob/blob.h"
#include "common/metrics.h"
#include "rpc/rpc.h"
#include "sim/resources.h"

namespace gvfs::ssh {

struct CipherSpec {
  // Per-flow throughput ceiling = min(window/RTT, cipher rate); charged as
  // flow pacing in addition to shared link occupancy.
  double per_flow_bps = 1.9 * 1_MiB;
  // Connection establishment: TCP + SSH key exchange handshakes.
  SimDuration setup_time = 400 * kMillisecond;
  // Per-RPC-message framing (SSH packet + MAC).
  u64 frame_overhead = 48;
  // Chunk size for interleaving flow pacing with link occupancy.
  u64 pacing_chunk = 64_KiB;
};

// An RPC channel that carries calls through an SSH tunnel across a pair of
// simulated links to an upstream handler (the remote GVFS proxy). The
// tunnel is established lazily on first use.
class SshTunnel final : public rpc::RpcChannel {
 public:
  SshTunnel(rpc::RpcHandler& upstream, sim::Link* to_server, sim::Link* to_client,
            CipherSpec spec = {});

  void send(sim::Process& p, std::span<const rpc::RpcCall> calls,
            std::span<rpc::RpcReply> replies) override;

  // Pre-establish (middleware starts tunnels at session setup).
  void establish(sim::Process& p);
  [[nodiscard]] bool established() const { return established_; }
  [[nodiscard]] u64 messages() const { return messages_.value(); }
  [[nodiscard]] u64 bytes_tunneled() const { return bytes_.value(); }

  void register_metrics(metrics::Registry& r, const std::string& prefix) const {
    r.register_counter(prefix + "messages", &messages_);
    r.register_counter(prefix + "bytes_tunneled", &bytes_);
  }

 private:
  // One message's framed bytes across `link`, paced by the cipher.
  void carry_(sim::Process& p, sim::Link* link, u64 bytes, bool propagate);

  rpc::RpcHandler& upstream_;
  sim::Link* to_server_;
  sim::Link* to_client_;
  CipherSpec spec_;
  bool established_ = false;
  metrics::Counter messages_;
  metrics::Counter bytes_;
};

// One-shot SCP-style bulk file transfer over its own SSH connection(s):
// per-flow pacing interleaved with shared-link occupancy, so concurrent
// transfers contend realistically. `streams > 1` models GridFTP-style
// parallel-stream transfers (the paper's §6 future work: "high-bandwidth
// transfers ... using protocols such as GridFTP for inter-proxy
// transfers") — N flows multiply the per-flow window/cipher ceiling while
// the shared link still caps aggregate throughput.
class Scp {
 public:
  Scp(sim::Link& link, CipherSpec spec = {}, u32 streams = 1)
      : link_(link), spec_(spec), streams_(std::max<u32>(1, streams)) {}

  // Push `bytes` through fresh connection(s) (setup included by default;
  // parallel streams handshake concurrently).
  void transfer(sim::Process& p, u64 bytes, bool include_setup = true);

  [[nodiscard]] u64 transfers() const { return transfers_.value(); }
  [[nodiscard]] u64 bytes_moved() const { return bytes_moved_.value(); }
  [[nodiscard]] u32 streams() const { return streams_; }

  void register_metrics(metrics::Registry& r, const std::string& prefix) const {
    r.register_counter(prefix + "transfers", &transfers_);
    r.register_counter(prefix + "bytes_moved", &bytes_moved_);
  }

 private:
  sim::Link& link_;
  CipherSpec spec_;
  u32 streams_;
  metrics::Counter transfers_;
  metrics::Counter bytes_moved_;
};

// GZIP cost/ratio model. Output sizes come from blob content
// (Blob::compressed_size); this models the CPU time.
struct GzipModel {
  double compress_bps = 10.0 * 1_MiB;  // gzip -6 on a ~1 GHz PIII
  double inflate_bps = 30.0 * 1_MiB;

  // Compress `src_bytes` on `cpu` (if provided, contends with other jobs);
  // returns nothing — output size is the caller's blob-derived figure.
  void compress(sim::Process& p, sim::CpuPool* cpu, u64 src_bytes) const {
    SimDuration work = transfer_time(src_bytes, compress_bps);
    if (cpu != nullptr) {
      cpu->run(p, work);
    } else {
      p.delay(work);
    }
  }
  void inflate(sim::Process& p, sim::CpuPool* cpu, u64 dst_bytes) const {
    SimDuration work = transfer_time(dst_bytes, inflate_bps);
    if (cpu != nullptr) {
      cpu->run(p, work);
    } else {
      p.delay(work);
    }
  }
};

}  // namespace gvfs::ssh
