// Modeled wire compression for bulk RPC payloads (the "compress" leg of the
// paper's action-list tradeoff, applied to the block channel). A paired
// decorator straddles the WAN:
//
//   proxy -> CompressChannel -> retry/fault -> tunnel -> CompressHandler -> server
//
// The client-side CompressChannel wraps a call's bulk payload (WRITE data)
// in a CompressedMessage whose wire_size() is reduced by the blob-modeled
// savings (Blob::compressed_size, never larger than raw), so every
// link/tunnel below charges the compressed byte count without changes; the
// server-side CompressHandler unwraps it before the real handler sees the
// args, and symmetrically wraps reply payloads (READ data) for the return
// leg. Compression/inflation CPU is charged at the wrapping/unwrapping end
// at gzip-class throughputs (ssh::GzipModel's numbers), optionally on a
// contended sim::CpuPool. No payload bytes are altered — compression is a
// time/bytes model, which is exactly what the simulation measures.
#pragma once

#include "blob/blob.h"
#include "common/metrics.h"
#include "rpc/rpc.h"

namespace gvfs::rpc {

// CPU cost/ratio knobs shared by both ends (defaults mirror ssh::GzipModel:
// gzip -6 on a ~1 GHz PIII).
struct CompressConfig {
  double compress_bps = 10.0 * 1_MiB;
  double inflate_bps = 30.0 * 1_MiB;
  // Charged for (de)compression work; nullptr = uncontended p.delay.
  sim::CpuPool* cpu = nullptr;
};

// A message whose bulk payload crosses the wire compressed: wire_size() is
// the inner message's minus the modeled savings; encoding (and the payload
// itself) is byte-identical to the inner message.
class CompressedMessage final : public Message {
 public:
  CompressedMessage(MessagePtr inner, u64 saved_bytes)
      : inner_(std::move(inner)), saved_(saved_bytes) {}

  [[nodiscard]] u64 wire_size() const override {
    return inner_->wire_size() - saved_;
  }
  void encode(xdr::XdrEncoder& enc) const override { inner_->encode(enc); }
  [[nodiscard]] const blob::Blob* bulk_payload() const override {
    return inner_->bulk_payload();
  }

  [[nodiscard]] const MessagePtr& inner() const { return inner_; }
  [[nodiscard]] u64 saved_bytes() const { return saved_; }

 private:
  MessagePtr inner_;
  u64 saved_;
};

// Shared accounting for one end of the stage.
class CompressStats {
 public:
  void register_metrics(metrics::Registry& r, const std::string& prefix) const {
    r.register_counter(prefix + "compress_bytes_in", &bytes_in_);
    r.register_counter(prefix + "compress_bytes_out", &bytes_out_);
    r.register_gauge(prefix + "compress_cpu_ms", &cpu_ms_);
  }

  void count(u64 raw, u64 compressed) {
    bytes_in_.inc(raw);
    bytes_out_.inc(compressed);
  }
  void charge(sim::Process& p, const CompressConfig& cfg, u64 bytes, double bps);

 private:
  metrics::Counter bytes_in_;   // raw payload bytes entering the compressor
  metrics::Counter bytes_out_;  // modeled bytes leaving it
  metrics::Gauge cpu_ms_;       // cumulative (de)compression CPU, ms
  SimDuration cpu_time_ = 0;
};

// Client side: compresses call payloads, inflates reply payloads, unwraps
// the CompressedMessage so upper layers message_cast the real result.
class CompressChannel final : public RpcChannel {
 public:
  CompressChannel(RpcChannel& next, CompressConfig cfg = {})
      : next_(next), cfg_(cfg) {}

  RpcReply call(sim::Process& p, const RpcCall& call) override;
  std::vector<RpcReply> call_pipelined(sim::Process& p,
                                       const std::vector<RpcCall>& calls) override;

  [[nodiscard]] const CompressStats& stats() const { return stats_; }
  void register_metrics(metrics::Registry& r, const std::string& prefix) const {
    stats_.register_metrics(r, prefix);
  }

 private:
  RpcCall wrap_call_(sim::Process& p, const RpcCall& call);
  void unwrap_reply_(sim::Process& p, RpcReply& reply);

  RpcChannel& next_;
  CompressConfig cfg_;
  CompressStats stats_;
};

// Server side: unwraps call payloads before the real handler, compresses
// reply payloads for the return leg. CPU lands on the server's pool.
class CompressHandler final : public RpcHandler {
 public:
  CompressHandler(RpcHandler& upstream, CompressConfig cfg = {})
      : upstream_(upstream), cfg_(cfg) {}

  RpcReply handle(sim::Process& p, const RpcCall& call) override;

  [[nodiscard]] const CompressStats& stats() const { return stats_; }
  void register_metrics(metrics::Registry& r, const std::string& prefix) const {
    stats_.register_metrics(r, prefix);
  }

 private:
  RpcHandler& upstream_;
  CompressConfig cfg_;
  CompressStats stats_;
};

}  // namespace gvfs::rpc
