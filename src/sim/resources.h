// Timed resource models layered on the simulation kernel: network links,
// disks, and a counting semaphore. All charging is done by blocking the
// calling process, so contention between concurrent processes (e.g. eight
// parallel cloning clients sharing one WAN link and one image-server disk)
// falls out of the queueing discipline.
#pragma once

#include <string>

#include "common/metrics.h"
#include "common/stats.h"
#include "common/types.h"
#include "sim/kernel.h"

namespace gvfs::sim {

// A point-to-point network link: fixed one-way propagation latency plus a
// bandwidth pipe shared by all concurrent senders. Serialization is modeled
// as chunked FIFO reservation: each message is split into `chunk_bytes`
// units that reserve the pipe in arrival order, which interleaves concurrent
// transfers round-robin — a good approximation of per-flow fair sharing
// under TCP. `per_message_overhead` charges fixed protocol cost (e.g. SSH
// record framing + syscall path) per message.
struct LinkConfig {
  SimDuration latency = 0;
  double bytes_per_sec = 100.0 * 1_MiB;
  u64 chunk_bytes = 64_KiB;
  SimDuration per_message_overhead = 0;
};

class Link {
 public:
  Link(SimKernel& kernel, std::string name, LinkConfig cfg)
      : kernel_(kernel), name_(std::move(name)), cfg_(cfg) {}

  // Block `p` for the full time to push `bytes` through the pipe and across
  // the propagation delay (synchronous message send).
  void transmit(Process& p, u64 bytes) { transmit_ex(p, bytes, true); }

  // As transmit(), optionally skipping the propagation delay — used by
  // pipelined RPC batches where in-flight messages overlap the RTT.
  void transmit_ex(Process& p, u64 bytes, bool propagate);

  [[nodiscard]] const LinkConfig& config() const { return cfg_; }
  [[nodiscard]] u64 bytes_sent() const { return bytes_sent_.value(); }
  [[nodiscard]] u64 messages() const { return messages_.value(); }
  [[nodiscard]] const std::string& name() const { return name_; }

  void register_metrics(metrics::Registry& r, const std::string& prefix) const {
    r.register_counter(prefix + "bytes_sent", &bytes_sent_);
    r.register_counter(prefix + "messages", &messages_);
  }

 private:
  SimKernel& kernel_;
  std::string name_;
  LinkConfig cfg_;
  SimTime pipe_free_ = 0;  // next time the serialization pipe is idle
  metrics::Counter bytes_sent_;
  metrics::Counter messages_;
};

// Disk access locality hint: sequential transfers amortize positioning.
enum class Locality { kRandom, kSequential };

// A single-spindle disk: positioning time plus media transfer, FIFO-queued.
struct DiskConfig {
  SimDuration seek = from_millis(9.0);        // average positioning (random)
  SimDuration seq_overhead = from_millis(0.1);  // per-op cost when sequential
  double bytes_per_sec = 35.0 * 1_MiB;
};

class DiskModel {
 public:
  DiskModel(SimKernel& kernel, std::string name, DiskConfig cfg)
      : kernel_(kernel), name_(std::move(name)), cfg_(cfg) {}

  // Block `p` for one disk operation of `bytes` (read or write — the model
  // is symmetric).
  void access(Process& p, u64 bytes, Locality locality);

  [[nodiscard]] u64 ops() const { return ops_.value(); }
  [[nodiscard]] u64 bytes_moved() const { return bytes_moved_.value(); }
  [[nodiscard]] const DiskConfig& config() const { return cfg_; }

  void register_metrics(metrics::Registry& r, const std::string& prefix) const {
    r.register_counter(prefix + "ops", &ops_);
    r.register_counter(prefix + "bytes_moved", &bytes_moved_);
  }

 private:
  SimKernel& kernel_;
  std::string name_;
  DiskConfig cfg_;
  SimTime free_ = 0;
  metrics::Counter ops_;
  metrics::Counter bytes_moved_;
};

// Counting semaphore (e.g. bounds concurrent nfsd service threads). Permit
// ownership is annotated on the underlying signal so the kernel's lockdep
// pass can walk hold-and-wait cycles through blocked permit holders; the
// annotation assumes the releasing process is the one that acquired (true
// for every RAII/scoped use in the tree).
class Semaphore {
 public:
  Semaphore(SimKernel& kernel, int permits, std::string name = "semaphore")
      : avail_(permits), sig_(kernel, std::move(name)) {}

  void acquire(Process& p) {
    while (avail_ == 0) p.wait(sig_);
    --avail_;
    sig_.add_holder();
  }
  void release() {
    sig_.remove_holder();
    ++avail_;
    sig_.notify_one();
  }
  [[nodiscard]] int available() const { return avail_; }

 private:
  int avail_;
  Signal sig_;
};

// A pool of `n` identical CPUs: run() blocks the process for `work` of
// compute once a CPU is free (models e.g. concurrent gzip jobs on a
// dual-processor image server).
class CpuPool {
 public:
  CpuPool(SimKernel& kernel, int cpus) : sem_(kernel, cpus, "cpu-pool") {}

  void run(Process& p, SimDuration work) {
    sem_.acquire(p);
    p.delay(work);
    sem_.release();
  }

 private:
  Semaphore sem_;
};

// RAII permit for Semaphore.
class ScopedPermit {
 public:
  ScopedPermit(Process& p, Semaphore& sem) : sem_(sem) { sem_.acquire(p); }
  ~ScopedPermit() { sem_.release(); }
  ScopedPermit(const ScopedPermit&) = delete;
  ScopedPermit& operator=(const ScopedPermit&) = delete;

 private:
  Semaphore& sem_;
};

}  // namespace gvfs::sim
