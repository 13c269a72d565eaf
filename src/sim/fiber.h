// Stackful cooperative fibers for the simulation kernel.
//
// The kernel runs every sim::Process on a fiber: a private, pooled call
// stack switched in and out by a context switch. Exactly one context — the
// scheduler (the OS thread that called SimKernel::run) or a single fiber —
// executes at any moment, so a virtual-time wakeup costs one user-space
// register swap each way instead of two OS thread context switches through
// a mutex/condvar handoff.
//
// On x86-64 the switch is a few lines of assembly in the shape of
// Boost.Context's fcontext: push the callee-saved registers, save MXCSR and
// the x87 control word, store the stack pointer, load the other context's,
// and pop its registers back. It makes no system call (glibc's swapcontext
// saves and restores the signal mask with one per switch, and the sim never
// changes its mask), and a suspended context is just its stack pointer. A
// new fiber's stack starts with a prepared frame of that shape whose return
// address is an entry stub, so its first switch enters Fiber::trampoline_.
// Other architectures fall back to ucontext (getcontext/makecontext/
// swapcontext); the build platform picks one, there is no option.
//
// Stacks are mmap'd with a PROT_NONE guard page below the usable range
// (overflow faults instead of corrupting a neighbour) and are recycled
// through a free pool: a boot-storm spawning tens of thousands of short
// processes touches the allocator only for the high-water mark of
// concurrently-live fibers. Untouched stack pages are never backed, so a
// generous virtual size costs only the pages a process actually uses.
//
// Sanitizer support: ASan and TSan both track stacks, so every switch is
// bracketed with their fiber annotations (__sanitizer_start/finish_
// switch_fiber, __tsan_switch_to_fiber) when the corresponding sanitizer is
// enabled; recycled stacks are unpoisoned before reuse. This keeps the
// CI sanitizer matrix byte-for-byte meaningful on the fiber engine.
#pragma once

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <cstddef>
#include <vector>

#include "common/types.h"

#if defined(__SANITIZE_ADDRESS__) && !defined(GVFS_FIBER_ASAN)
#define GVFS_FIBER_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__) && !defined(GVFS_FIBER_TSAN)
#define GVFS_FIBER_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) && !defined(GVFS_FIBER_ASAN)
#define GVFS_FIBER_ASAN 1
#endif
#if __has_feature(thread_sanitizer) && !defined(GVFS_FIBER_TSAN)
#define GVFS_FIBER_TSAN 1
#endif
#endif

namespace gvfs::sim::fiber {

// A suspended execution context: on x86-64 the stack pointer at which its
// registers were pushed, elsewhere a ucontext_t.
#if defined(__x86_64__)
using Context = void*;
#else
using Context = ucontext_t;
#endif

// One mmap'd fiber stack: [map_base, map_base+map_size) is the whole
// mapping, the low page is a PROT_NONE guard, [limit, limit+usable) is the
// writable range the fiber runs on.
struct Stack {
  void* map_base = nullptr;
  std::size_t map_size = 0;
  unsigned char* limit = nullptr;
  std::size_t usable = 0;
};

// Reusable stack pool. acquire() pops a recycled stack or maps a fresh one;
// release() returns it (unpoisoned) for the next fiber.
class StackPool {
 public:
  // Virtual size per stack; physical pages are only committed as touched, so
  // this costs address space, not RSS. Matches the 8 MiB glibc thread default
  // the previous thread-per-process engine ran on: blob extent chains recurse
  // one frame per layer (ExtentStore::compressed_size), and a long
  // write/suspend session builds chains deep enough to blow a 1 MiB stack.
  static constexpr std::size_t kDefaultStackBytes = 8 * 1024 * 1024;

  explicit StackPool(std::size_t stack_bytes = kDefaultStackBytes);
  ~StackPool();
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  Stack acquire();
  void release(const Stack& s);

  // Total stacks ever mapped == high-water mark of concurrently-live fibers.
  [[nodiscard]] u64 stacks_created() const { return created_; }

 private:
  std::size_t stack_bytes_;
  std::vector<Stack> free_;
  u64 created_ = 0;
};

// The scheduler side of every switch: the OS thread's own context plus the
// sanitizer bookkeeping for its native stack. One per kernel.
class MainContext {
 public:
  MainContext() = default;
  MainContext(const MainContext&) = delete;
  MainContext& operator=(const MainContext&) = delete;

 private:
  friend class Fiber;
  Context ctx_{};
#if GVFS_FIBER_TSAN
  void* tsan_fiber_ = nullptr;
#endif
#if GVFS_FIBER_ASAN
  void* fake_stack_ = nullptr;
  // The scheduler thread's stack bounds, learned from the first fiber-side
  // __sanitizer_finish_switch_fiber; every fiber->scheduler switch needs
  // them as the destination stack.
  const void* stack_bottom_ = nullptr;
  std::size_t stack_size_ = 0;
#endif
};

// A single cooperative execution context. Lifecycle:
//   Fiber f(pool, main, entry, arg);   // grabs a pooled stack, prepares it
//   f.resume();                        // scheduler -> fiber, runs entry(arg)
//   ... entry calls f.yield() to suspend, resume() continues it ...
//   entry returns -> fiber marks finished, final-switches to the scheduler;
//   resume() returns with finished()==true and the stack already recycled.
// entry must not let exceptions escape (the kernel's trampoline catches).
class Fiber {
 public:
  using Entry = void (*)(void* arg);

  Fiber(StackPool& pool, MainContext& main, Entry entry, void* arg);
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  // Scheduler -> fiber. Returns when the fiber yields or finishes.
  void resume();
  // Fiber -> scheduler. Returns when the scheduler resumes this fiber.
  void yield();

  [[nodiscard]] bool finished() const { return finished_; }

 private:
  // The first code a fiber runs: entry_(arg_), then the final switch.
  [[noreturn]] static void trampoline_(Fiber* self);
  // Saves the running context in `from` and continues `to`.
  void switch_(Context& from, Context& to);

  StackPool& pool_;
  MainContext& main_;
  Entry entry_;
  void* arg_;
  Stack stack_;
  Context ctx_{};
  bool finished_ = false;
  bool stack_released_ = false;
#if GVFS_FIBER_TSAN
  void* tsan_fiber_ = nullptr;
#endif
#if GVFS_FIBER_ASAN
  void* fake_stack_ = nullptr;
#endif
};

}  // namespace gvfs::sim::fiber
