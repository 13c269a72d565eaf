// Process-oriented discrete-event simulation kernel.
//
// Every actor in an experiment (a VM monitor, a background cache flusher, a
// parallel cloning client) is a Process: a cooperatively-scheduled stackful
// fiber (sim/fiber.h) that blocks on virtual time. Exactly one context —
// the scheduler or a single process fiber — runs at any moment, all on one
// OS thread, so simulation state needs no synchronization and a wakeup
// costs one user-space register switch each way (on x86-64 a hand-written
// one that makes no system call, see sim/fiber.h). Determinism: the ready
// queue orders wakeups by (time, sequence number), and sequence numbers are
// handed out in program order, so identical inputs give identical
// schedules — the fiber engine produces the exact (time, seq) schedule the
// original thread-per-process engine did.
//
// The protocol stack (NFS client, proxies, caches, servers) is written as
// ordinary synchronous code; latency and bandwidth costs are charged by
// blocking the calling process on Link / DiskModel resources (resources.h).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sim/fiber.h"

namespace gvfs::sim {

class SimKernel;
class Process;

// Thrown inside a process when the kernel shuts down while it is blocked;
// unwinds the process body so RAII cleanup (permits, caches) runs.
struct ProcessKilled {};

// Deadlock checking (sim lockdep). The kernel always keeps the cheap
// bookkeeping (who waits on which signal, who holds which lock-like
// resource) and computes a QuiescenceReport when the event queue drains
// with processes still blocked. GVFS_DEADLOCK_CHECK additionally logs the
// full wait-for graph at that point; it is always on in debug builds and
// can be forced for any build type with -DGVFS_DEADLOCK_CHECK=1 (the CMake
// option GVFS_DEADLOCK_CHECK does this).
#if !defined(GVFS_DEADLOCK_CHECK) && !defined(NDEBUG)
#define GVFS_DEADLOCK_CHECK 1
#endif

// A waitable pulse: processes block on it, another process releases them.
// Used for semaphores, RPC completion, middleware signals (SIGUSR-style
// flush/write-back commands in the paper map onto these).
//
// Signals register with their kernel so end-of-run deadlock analysis can
// walk every wait list; the optional `name` shows up in those reports.
// Registration is an intrusive list: O(1) to join and leave (RPC-scoped
// signals are created per call) while preserving registration order for
// deterministic reports.
class Signal {
 public:
  explicit Signal(SimKernel& kernel, std::string name = "signal");
  ~Signal();
  Signal(const Signal&) = delete;
  Signal& operator=(const Signal&) = delete;

  // Wake every currently-blocked waiter at the current virtual time.
  void notify_all();
  // Wake one waiter (FIFO). Returns false if nobody was waiting.
  bool notify_one();

  // Lockdep annotation for lock-like resources guarded by this signal
  // (semaphore permits, leases): the *currently running* process becomes /
  // stops being a holder. A cycle of blocked waiters through holders is a
  // hold-and-wait deadlock. No-ops outside process context.
  void add_holder();
  void remove_holder();

  [[nodiscard]] const std::string& name() const { return name_; }
  // Times notify_one()/notify_all() found no waiter to wake. A process
  // stuck on this signal at quiescence after such a notify is the classic
  // lost-wakeup shape (notify raced ahead of wait).
  [[nodiscard]] u64 missed_notifies() const { return missed_notifies_; }

 private:
  friend class Process;
  friend class SimKernel;

  [[nodiscard]] bool no_waiters_() const { return wait_head_ == waiters_.size(); }
  // Reclaim the consumed prefix once it dominates the vector, so a signal
  // that always has a waiter doesn't accrete its full wake history.
  void compact_();

  SimKernel& kernel_;
  std::string name_;
  // FIFO wait list as vector + head index: notify_one is O(1) amortized
  // (the old erase(begin()) was O(waiters) per wake). Live waiters are
  // waiters_[wait_head_ ..]; the prefix is already-woken history.
  std::vector<Process*> waiters_;
  std::size_t wait_head_ = 0;
  std::vector<Process*> holders_;
  u64 missed_notifies_ = 0;
  // Kernel signal registry (intrusive, registration order).
  Signal* reg_prev_ = nullptr;
  Signal* reg_next_ = nullptr;
};

// Handle passed to a process body; all blocking primitives live here.
class Process {
 public:
  // Advance virtual time by `d` (>= 0).
  void delay(SimDuration d);
  // Block until virtual time `t` (no-op if already past).
  void delay_until(SimTime t);
  // Block until the signal fires.
  void wait(Signal& s);

  [[nodiscard]] SimTime now() const;
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] SimKernel& kernel() { return kernel_; }

 private:
  friend class SimKernel;
  friend class Signal;

  enum class State { kCreated, kRunning, kBlocked, kDone };

  Process(SimKernel& kernel, std::string name) : kernel_(kernel), name_(std::move(name)) {}

  // Yields the fiber back to the scheduler until the kernel hands control
  // back; throws ProcessKilled if the kernel shut the process down.
  // Precondition: called on this process's fiber while it is current.
  void block_();

  // Fiber entry point: runs body_, records failure, marks kDone.
  static void fiber_main_(void* arg);

  SimKernel& kernel_;
  std::string name_;
  std::function<void(Process&)> body_;  // released once the body finishes
  // Embedded (not heap-allocated) and constructed lazily on first dispatch:
  // spawning costs no fiber work, and a process killed before it ever ran
  // never builds one.
  std::optional<fiber::Fiber> fiber_;
  State state_ = State::kCreated;
  bool killed_ = false;
  bool failed_ = false;  // body exited via exception other than ProcessKilled
};

using ProcessBody = std::function<void(Process&)>;

// Result of the lockdep pass run when the event queue drains while
// processes are still blocked on signals ("quiescence"). Servers parked on
// request signals are normal there; hold-and-wait cycles never are.
struct QuiescenceReport {
  struct BlockedWaiter {
    std::string process;
    std::string signal;
    // The awaited signal was notified at least once while nobody was
    // waiting — the stuck wait is likely a lost wakeup, not an idle server.
    bool possible_lost_wakeup = false;
  };

  // Every process still blocked on a signal at quiescence.
  std::vector<BlockedWaiter> blocked;
  // Hold-and-wait cycles: process names, each waiting on a resource held by
  // the next (last waits on the first). A non-empty list is a deadlock.
  std::vector<std::vector<std::string>> cycles;

  [[nodiscard]] bool deadlock() const { return !cycles.empty(); }
  [[nodiscard]] bool names_process(const std::string& name) const;
  [[nodiscard]] std::string to_string() const;
};

class SimKernel {
 public:
  SimKernel();
  ~SimKernel();
  SimKernel(const SimKernel&) = delete;
  SimKernel& operator=(const SimKernel&) = delete;

  // Create a process that becomes runnable at the current virtual time
  // (plus `start_after`). Callable before run() or from inside a process.
  Process& spawn(std::string name, ProcessBody body, SimDuration start_after = 0);

  // Drive the simulation until no scheduled wakeups remain. Processes still
  // blocked on signals at that point are killed (they unwind via
  // ProcessKilled). Returns the final virtual time.
  SimTime run();

  // Convenience: spawn a single process and run the kernel to completion.
  SimTime run_process(std::string name, ProcessBody body);

  [[nodiscard]] SimTime now() const { return now_; }

  // The kernel-owned deterministic PRNG: the single randomness source for
  // fault injection and retry jitter. Processes run one at a time in a
  // deterministic order, so draws are reproducible; re-seed before a run to
  // get an identical schedule.
  [[nodiscard]] SplitMix64& rng() { return rng_; }
  void seed_rng(u64 seed) { rng_ = SplitMix64(seed); }

  // Number of processes whose bodies threw (test hygiene: assert == 0).
  [[nodiscard]] int failed_processes() const { return failed_; }
  // Names of those processes, in completion order.
  [[nodiscard]] const std::vector<std::string>& failed_process_names() const {
    return failed_names_;
  }
  // "name1, name2" — convenience for assertion messages.
  [[nodiscard]] std::string failed_names_joined() const;

  // Lockdep findings from the most recent run() that reached quiescence
  // with blocked processes; empty when every process ran to completion.
  [[nodiscard]] const QuiescenceReport& quiescence_report() const {
    return quiescence_;
  }

  // Observes every dispatch the run loop makes, in order: the wakeup's
  // virtual time, its sequence number, and the process resumed. The
  // (time, seq, name) stream IS the schedule — the determinism property
  // tests record it and demand byte-identical replays. Null (default)
  // costs nothing.
  using ScheduleTracer = std::function<void(SimTime time, u64 seq, const Process& p)>;
  void set_schedule_tracer(ScheduleTracer fn) { tracer_ = std::move(fn); }

  // Fiber stacks ever mapped == high-water mark of concurrently-live
  // processes (stacks are pooled and recycled across spawns).
  [[nodiscard]] u64 fiber_stacks_created() const { return stacks_.stacks_created(); }

 private:
  friend class Process;
  friend class Signal;

  struct Wakeup {
    SimTime time;
    u64 seq;
    Process* proc;
    bool operator>(const Wakeup& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  void schedule_(SimTime t, Process* p);
  // Hand control to `p`'s fiber (creating it on first dispatch); returns
  // when the fiber blocks or finishes.
  void resume_process_(Process* p);
  // Unwind a blocked process via ProcessKilled (or retire a never-started
  // one). `as_current`: run the unwind with current_ == p so lockdep holder
  // annotations released by RAII cleanup attribute correctly.
  void kill_process_(Process* p, bool as_current);
  void register_signal_(Signal* s);
  void unregister_signal_(Signal* s);
  // Build the wait-for graph over still-blocked waiters and detect
  // hold-and-wait cycles and lost-wakeup shapes.
  QuiescenceReport analyze_quiescence_() const;

  std::priority_queue<Wakeup, std::vector<Wakeup>, std::greater<>> queue_;
  std::vector<std::unique_ptr<Process>> procs_;
  SimTime now_ = 0;
  u64 seq_ = 0;
  SplitMix64 rng_;
  int failed_ = 0;
  std::vector<std::string> failed_names_;
  bool running_ = false;
  Process* current_ = nullptr;  // the one process allowed to run right now
  fiber::MainContext main_ctx_;
  fiber::StackPool stacks_;
  Signal* signals_head_ = nullptr;  // live signals, registration order
  Signal* signals_tail_ = nullptr;
  QuiescenceReport quiescence_;
  ScheduleTracer tracer_;
};

}  // namespace gvfs::sim
