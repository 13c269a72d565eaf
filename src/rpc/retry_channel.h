// RetryChannel: NFS-style retransmission over an unreliable channel.
//
// Models a hard-mounted NFS client's RPC layer: each call gets a
// retransmission timeout (RTO); on kTimeout from below, the caller has
// waited out the RTO (virtual time), the call is reissued with the SAME xid
// (so the server's duplicate request cache can suppress re-execution of
// non-idempotent ops), and the RTO backs off exponentially with
// deterministic jitter drawn from the kernel PRNG. `max_retransmits == 0`
// retries forever — hard-mount semantics, which is what lets workloads ride
// out partitions and server reboots; a finite budget gives soft-mount
// behaviour (kTimeout surfaces, e.g. into the proxy's degraded mode).
//
// Reply xids are verified against the issued call before acceptance.
//
// Every entry of a burst funnels into one retry loop (finish_), so RTO
// budget, backoff, and the timeout/retransmit counters are maintained in
// exactly one place; each retransmission is a burst of one.
#pragma once

#include "common/metrics.h"
#include "common/trace.h"
#include "rpc/rpc.h"
#include "sim/kernel.h"

namespace gvfs::rpc {

struct RetryConfig {
  SimDuration timeout = 1100 * kMillisecond;  // initial RTO (NFS timeo=11)
  double backoff = 2.0;
  double jitter = 0.1;       // extra wait, uniform in [0, jitter*RTO)
  u32 max_retransmits = 0;   // 0 = retry forever (hard mount)
};

class RetryChannel final : public RpcChannel {
 public:
  RetryChannel(RpcChannel& inner, sim::SimKernel& kernel, RetryConfig cfg = {})
      : inner_(inner), kernel_(kernel), cfg_(cfg) {}

  void send(sim::Process& p, std::span<const RpcCall> calls,
            std::span<RpcReply> replies) override;

  [[nodiscard]] const RetryConfig& config() const { return cfg_; }

  // Annotate retransmissions onto the caller's open trace span.
  void set_tracer(trace::RpcTracer* t) { tracer_ = t; }

  // ---- retry-budget counters ----------------------------------------------
  [[nodiscard]] u64 timeouts() const { return timeouts_.value(); }        // RTO expiries seen
  [[nodiscard]] u64 retransmits() const { return retransmits_.value(); }  // calls reissued
  [[nodiscard]] u64 exhausted() const { return exhausted_.value(); }      // budget ran out
  [[nodiscard]] u64 xid_mismatches() const { return xid_mismatches_.value(); }

  void register_metrics(metrics::Registry& r, const std::string& prefix) const {
    r.register_counter(prefix + "timeouts", &timeouts_);
    r.register_counter(prefix + "retransmits", &retransmits_);
    r.register_counter(prefix + "exhausted", &exhausted_);
    r.register_counter(prefix + "xid_mismatches", &xid_mismatches_);
    r.register_histogram(prefix + "rto_wait_ms", &rto_wait_ms_);
  }

 private:
  // Shared retry loop: takes the first transmission's send time and reply
  // (already obtained by send()) and owns every subsequent timeout wait,
  // reissue, and counter from there.
  RpcReply finish_(sim::Process& p, const RpcCall& call, SimTime sent_at,
                   RpcReply reply);

  RpcChannel& inner_;
  sim::SimKernel& kernel_;
  RetryConfig cfg_;
  trace::RpcTracer* tracer_ = nullptr;
  metrics::Counter timeouts_;
  metrics::Counter retransmits_;
  metrics::Counter exhausted_;
  metrics::Counter xid_mismatches_;
  metrics::Histogram rto_wait_ms_;  // per-retransmit wait before reissue
};

}  // namespace gvfs::rpc
