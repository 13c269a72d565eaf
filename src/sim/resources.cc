#include "sim/resources.h"

#include <algorithm>

namespace gvfs::sim {

void Link::transmit_ex(Process& p, u64 bytes, bool propagate) {
  messages_.inc();
  bytes_sent_.inc(bytes);
  if (cfg_.per_message_overhead > 0) p.delay(cfg_.per_message_overhead);
  u64 remaining = bytes;
  // Zero-byte messages (pure control) still cross the propagation delay.
  while (remaining > 0) {
    u64 chunk = std::min<u64>(remaining, cfg_.chunk_bytes);
    SimTime start = std::max(p.now(), pipe_free_);
    SimDuration busy = transfer_time(chunk, cfg_.bytes_per_sec);
    pipe_free_ = start + busy;
    p.delay_until(pipe_free_);
    remaining -= chunk;
  }
  if (propagate && cfg_.latency > 0) p.delay(cfg_.latency);
}

void DiskModel::access(Process& p, u64 bytes, Locality locality) {
  ops_.inc();
  bytes_moved_.inc(bytes);
  SimDuration position =
      locality == Locality::kSequential ? cfg_.seq_overhead : cfg_.seek;
  SimDuration busy = position + transfer_time(bytes, cfg_.bytes_per_sec);
  SimTime start = std::max(p.now(), free_);
  free_ = start + busy;
  p.delay_until(free_);
}

}  // namespace gvfs::sim
