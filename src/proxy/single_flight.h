// Single-flight coalescing: concurrent callers that need the same key share
// one in-flight operation. The first caller leads (runs the operation); later
// callers join and take the lead's outcome instead of repeating the work.
// Used for the proxy's upstream block fetches and the L2 endpoint's image
// pulls, where N nodes missing the same data at once should cost one trip.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "sim/kernel.h"

namespace gvfs::proxy {

template <typename Key, typename Outcome>
class SingleFlight {
 public:
  [[nodiscard]] bool in_flight(const Key& key) const { return flights_.count(key) != 0; }

  // Waits for the flight in progress for `key` and returns its outcome. The
  // first joiner opens the flight's wake-up Signal, named `signal_name`, so
  // an uncontended lead costs one table entry and nothing else.
  Outcome join(sim::Process& p, const Key& key, const std::string& signal_name) {
    std::shared_ptr<Flight>& slot = flights_.at(key);
    if (!slot) slot = std::make_shared<Flight>(p.kernel(), signal_name);
    // Hold the flight itself: the lead erases the table slot before waking us.
    std::shared_ptr<Flight> f = slot;
    while (!f->outcome) p.wait(f->done);
    return *f->outcome;
  }

  // Runs `op` as the lead for `key` and hands its outcome to every joiner.
  template <typename Op>
  Outcome lead(const Key& key, Op&& op) {
    flights_.emplace(key, nullptr);
    // gvfs-yield: yields via op (an upstream fetch or pull)
    Outcome out = op();
    auto it = flights_.find(key);
    std::shared_ptr<Flight> f = std::move(it->second);
    flights_.erase(it);
    if (f) {
      f->outcome = out;
      f->done.notify_all();
    }
    return out;
  }

 private:
  struct Flight {
    Flight(sim::SimKernel& kernel, std::string name) : done(kernel, std::move(name)) {}
    sim::Signal done;
    std::optional<Outcome> outcome;
  };

  // A null flight is a lead nobody has joined yet.
  std::map<Key, std::shared_ptr<Flight>> flights_;
};

}  // namespace gvfs::proxy
