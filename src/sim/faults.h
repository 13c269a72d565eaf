// Deterministic WAN fault injection (§3.1's wide-area premise, exercised).
//
// A FaultInjector owns a schedule of failures for one network path: random
// per-message drops, partition windows (total communication blackout) and
// server crash/restart windows. All randomness comes from the simulation
// kernel's seeded SplitMix64 — draws happen in the kernel's deterministic
// process-execution order, so identical seeds give identical fault schedules
// and identical simulated timelines. No wall-clock anywhere.
//
// Hook point: rpc::FaultyChannel consults drop_request()/drop_reply()/
// server_down() around each RPC (rpc/fault_channel.h).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/types.h"
#include "sim/kernel.h"

namespace gvfs::sim {

// FaultWindow::server value meaning "every server on this path" — the
// single-origin topologies never care which server a window hits.
constexpr int kAllServers = -1;

// Half-open virtual-time interval [start, end). Crash windows additionally
// carry the id of the server they take down (default: all of them), so a
// replicated origin tier can lose one replica while its peers stay up.
struct FaultWindow {
  SimTime start = 0;
  SimTime end = 0;
  int server = kAllServers;
  [[nodiscard]] bool contains(SimTime t) const { return t >= start && t < end; }
  [[nodiscard]] bool applies_to(int server_id) const {
    return server == kAllServers || server == server_id;
  }
};

struct FaultConfig {
  // Independent per-message loss probability (requests and replies each
  // flip a coin, as on a real lossy path).
  double drop_rate = 0.0;
  // Network partitions: every message in a window is lost (both directions).
  std::vector<FaultWindow> partitions;
  // Server crash windows: requests are lost and the server executes nothing;
  // at the end of each window the server "reboots" (on_restart fires on the
  // first traffic afterwards — volatile state like page caches and the
  // duplicate-request cache is the callback's to clear). A window's `server`
  // field scopes the crash to one origin id (kAllServers hits every one).
  std::vector<FaultWindow> crashes;
};

class FaultInjector {
 public:
  // Draws randomness from `kernel.rng()`; seed it via SimKernel::seed_rng
  // before the run for a reproducible schedule.
  FaultInjector(SimKernel& kernel, FaultConfig cfg)
      : kernel_(kernel), cfg_(std::move(cfg)) {}
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  [[nodiscard]] const FaultConfig& config() const { return cfg_; }

  // Fired on the first traffic after a crash window closes (server reboot)
  // that applies to `server_id`.
  void set_on_restart(int server_id, std::function<void()> fn) {
    on_restart_[server_id] = std::move(fn);
  }

  // ---- decision points (called by FaultyChannel) ---------------------------
  // Should the request at virtual time `t` be lost before reaching server
  // `server_id`? True during crashes and partitions, or on a loss coin flip.
  bool drop_request(SimTime t, int server_id);
  // Should the reply arriving at `t` be lost on the way back? (The server
  // did execute the request — this is what the duplicate-request cache is
  // for.)
  bool drop_reply(SimTime t);

  // Fire pending restart callbacks for crash windows scoped to `server_id`
  // (or to all servers) that ended at or before `t`. FaultyChannel calls
  // this before letting traffic through. Each (window, server) pair fires at
  // most once; windows fire in schedule order.
  void fire_restarts_due(SimTime t, int server_id);

  [[nodiscard]] bool partitioned(SimTime t) const;
  [[nodiscard]] bool server_down(SimTime t, int server_id) const;

  // ---- counters ------------------------------------------------------------
  [[nodiscard]] u64 requests_dropped() const { return requests_dropped_.value(); }
  [[nodiscard]] u64 replies_dropped() const { return replies_dropped_.value(); }
  [[nodiscard]] u64 restarts_fired() const { return restarts_fired_.value(); }

  void register_metrics(metrics::Registry& r, const std::string& prefix) const {
    r.register_counter(prefix + "requests_dropped", &requests_dropped_);
    r.register_counter(prefix + "replies_dropped", &replies_dropped_);
    r.register_counter(prefix + "restarts_fired", &restarts_fired_);
  }

 private:
  SimKernel& kernel_;
  FaultConfig cfg_;
  // Per-server restart hooks and, per server, the count of crash windows
  // whose reboot already ran for it (windows are consumed in vector order —
  // std::map keeps iteration deterministic).
  std::map<int, std::function<void()>> on_restart_;
  std::map<int, std::size_t> restarts_fired_upto_;
  metrics::Counter requests_dropped_;
  metrics::Counter replies_dropped_;
  metrics::Counter restarts_fired_;
};

}  // namespace gvfs::sim
