#include "sim/faults.h"

namespace gvfs::sim {

bool FaultInjector::partitioned(SimTime t) const {
  for (const FaultWindow& w : cfg_.partitions) {
    if (w.contains(t)) return true;
  }
  return false;
}

bool FaultInjector::server_down(SimTime t, int server_id) const {
  for (const FaultWindow& w : cfg_.crashes) {
    if (w.contains(t) && w.applies_to(server_id)) return true;
  }
  return false;
}

bool FaultInjector::drop_request(SimTime t, int server_id) {
  if (server_down(t, server_id) || partitioned(t)) {
    requests_dropped_.inc();
    return true;
  }
  if (cfg_.drop_rate > 0.0 && kernel_.rng().next_double() < cfg_.drop_rate) {
    requests_dropped_.inc();
    return true;
  }
  return false;
}

bool FaultInjector::drop_reply(SimTime t) {
  if (partitioned(t)) {
    replies_dropped_.inc();
    return true;
  }
  if (cfg_.drop_rate > 0.0 && kernel_.rng().next_double() < cfg_.drop_rate) {
    replies_dropped_.inc();
    return true;
  }
  return false;
}

void FaultInjector::fire_restarts_due(SimTime t, int server_id) {
  auto cb = on_restart_.find(server_id);
  if (cb == on_restart_.end() || !cb->second) return;
  // Crash windows are expected in chronological order (schedules are built
  // that way); each window reboots each server it applies to exactly once.
  std::size_t& upto = restarts_fired_upto_[server_id];
  while (upto < cfg_.crashes.size() && cfg_.crashes[upto].end <= t) {
    const FaultWindow& w = cfg_.crashes[upto];
    ++upto;
    if (!w.applies_to(server_id)) continue;
    restarts_fired_.inc();
    cb->second();
  }
}

}  // namespace gvfs::sim
