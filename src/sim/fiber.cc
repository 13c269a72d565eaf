#include "sim/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if GVFS_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if GVFS_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__x86_64__)
// gvfs_fiber_switch(&from, to): push the callee-saved registers, then MXCSR
// and the x87 control word in one 8-byte slot (both are callee-saved
// control state in the SysV ABI, and each fiber keeps its own), store rsp
// into *from, load `to` as rsp and pop the other context's state in reverse.
// The final `ret` returns into the code that switched away from `to`, or, on
// a new fiber's first switch, into gvfs_fiber_entry through the frame the
// Fiber constructor prepared.
//
// gvfs_fiber_entry: never called, only returned into, with `this` in rbx
// and Fiber::trampoline_ in r12. rsp is 16-byte aligned here, so the call
// hands the trampoline the alignment the ABI promises at function entry.
// Its CFI marks the return address undefined: unwinders stop at the stub.
asm(R"(
        .pushsection .text
        .p2align 4
        .globl  gvfs_fiber_switch
        .hidden gvfs_fiber_switch
        .type   gvfs_fiber_switch, @function
gvfs_fiber_switch:
        pushq   %rbp
        pushq   %rbx
        pushq   %r12
        pushq   %r13
        pushq   %r14
        pushq   %r15
        leaq    -8(%rsp), %rsp
        stmxcsr (%rsp)
        fnstcw  4(%rsp)
        movq    %rsp, (%rdi)
        movq    %rsi, %rsp
        ldmxcsr (%rsp)
        fldcw   4(%rsp)
        leaq    8(%rsp), %rsp
        popq    %r15
        popq    %r14
        popq    %r13
        popq    %r12
        popq    %rbx
        popq    %rbp
        ret
        .size   gvfs_fiber_switch, .-gvfs_fiber_switch

        .p2align 4
        .globl  gvfs_fiber_entry
        .hidden gvfs_fiber_entry
        .type   gvfs_fiber_entry, @function
gvfs_fiber_entry:
        .cfi_startproc
        .cfi_undefined rip
        movq    %rbx, %rdi
        call    *%r12
        ud2
        .cfi_endproc
        .size   gvfs_fiber_entry, .-gvfs_fiber_entry
        .popsection
)");

extern "C" void gvfs_fiber_switch(void** from, void* to);
extern "C" void gvfs_fiber_entry();
#endif

namespace gvfs::sim::fiber {

namespace {

std::size_t page_size() {
  static const std::size_t pg = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return pg;
}

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "sim::fiber: %s\n", what);
  std::abort();
}

#if !defined(__x86_64__)
// makecontext passes an entry function only ints, so a new fiber learns
// which Fiber it is from the switch that first runs it.
thread_local Fiber* t_entering = nullptr;
#endif

}  // namespace

// -------------------------------------------------------------- StackPool --

StackPool::StackPool(std::size_t stack_bytes) : stack_bytes_(stack_bytes) {
  std::size_t pg = page_size();
  stack_bytes_ = (stack_bytes_ + pg - 1) / pg * pg;
}

StackPool::~StackPool() {
  for (const Stack& s : free_) munmap(s.map_base, s.map_size);
}

Stack StackPool::acquire() {
  if (!free_.empty()) {
    Stack s = free_.back();
    free_.pop_back();
    return s;
  }
  std::size_t pg = page_size();
  Stack s;
  s.map_size = stack_bytes_ + pg;  // + low guard page
  s.map_base = mmap(nullptr, s.map_size, PROT_NONE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (s.map_base == MAP_FAILED) die("stack mmap failed");
  s.limit = static_cast<unsigned char*>(s.map_base) + pg;
  s.usable = stack_bytes_;
  if (mprotect(s.limit, s.usable, PROT_READ | PROT_WRITE) != 0) {
    die("stack mprotect failed");
  }
  ++created_;
  return s;
}

void StackPool::release(const Stack& s) {
#if GVFS_FIBER_ASAN
  // A finished fiber leaves poisoned redzones behind; the next tenant must
  // see a clean stack.
  __asan_unpoison_memory_region(s.limit, s.usable);
#endif
  free_.push_back(s);
}

// ------------------------------------------------------------------ Fiber --

void Fiber::switch_(Context& from, Context& to) {
#if defined(__x86_64__)
  gvfs_fiber_switch(&from, to);
#else
  t_entering = this;  // a fiber's first switch has no other way to find it
  if (swapcontext(&from, &to) != 0) die("swapcontext failed");
#endif
}

Fiber::Fiber(StackPool& pool, MainContext& main, Entry entry, void* arg)
    : pool_(pool), main_(main), entry_(entry), arg_(arg), stack_(pool.acquire()) {
#if defined(__x86_64__)
  // The frame gvfs_fiber_switch pops, built at the top of the stack: the
  // creator's MXCSR and x87 control word, zeroed r15/r14/r13, the
  // trampoline in r12, `this` in rbx, a null rbp (frame-pointer walks end
  // here) and the entry stub as the return address. The frame's base is
  // 16-byte aligned, so the stub starts with rsp 16-byte aligned below
  // two zero words and its call gives the trampoline the ABI's alignment.
  std::uint32_t mxcsr = 0;
  std::uint16_t fpu_cw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpu_cw));
  const std::uint64_t frame[10] = {
      mxcsr | std::uint64_t{fpu_cw} << 32,
      0, 0, 0,
      reinterpret_cast<std::uint64_t>(&Fiber::trampoline_),
      reinterpret_cast<std::uint64_t>(this),
      0,
      reinterpret_cast<std::uint64_t>(&gvfs_fiber_entry),
      0, 0};
  unsigned char* base = stack_.limit + stack_.usable - sizeof frame;
  std::memcpy(base, frame, sizeof frame);
  ctx_ = base;
#else
  if (getcontext(&ctx_) != 0) die("getcontext failed");
  ctx_.uc_stack.ss_sp = stack_.limit;
  ctx_.uc_stack.ss_size = stack_.usable;
  ctx_.uc_link = nullptr;
  makecontext(&ctx_, [] { trampoline_(t_entering); }, 0);
#endif
#if GVFS_FIBER_TSAN
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  // The kernel kills (and thereby finishes) every process before dropping
  // its fiber; a live fiber here would leak its half-run stack.
  assert(finished_ && "destroying an unfinished fiber");
#if GVFS_FIBER_TSAN
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
  if (!stack_released_) pool_.release(stack_);
}

void Fiber::resume() {
  assert(!finished_ && "resuming a finished fiber");
#if GVFS_FIBER_TSAN
  if (main_.tsan_fiber_ == nullptr) {
    main_.tsan_fiber_ = __tsan_get_current_fiber();
  }
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#if GVFS_FIBER_ASAN
  __sanitizer_start_switch_fiber(&main_.fake_stack_, stack_.limit, stack_.usable);
#endif
  switch_(main_.ctx_, ctx_);
#if GVFS_FIBER_ASAN
  const void* from_bottom = nullptr;
  std::size_t from_size = 0;
  __sanitizer_finish_switch_fiber(main_.fake_stack_, &from_bottom, &from_size);
#endif
  if (finished_) {
#if GVFS_FIBER_TSAN
    __tsan_destroy_fiber(tsan_fiber_);
    tsan_fiber_ = nullptr;
#endif
    // Recycle eagerly: the next spawn reuses this stack even while the
    // Process object (and its name) lives on for end-of-run reporting.
    pool_.release(stack_);
    stack_released_ = true;
  }
}

void Fiber::yield() {
#if GVFS_FIBER_TSAN
  __tsan_switch_to_fiber(main_.tsan_fiber_, 0);
#endif
#if GVFS_FIBER_ASAN
  __sanitizer_start_switch_fiber(&fake_stack_, main_.stack_bottom_,
                                 main_.stack_size_);
#endif
  switch_(ctx_, main_.ctx_);
#if GVFS_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fake_stack_, &main_.stack_bottom_,
                                  &main_.stack_size_);
#endif
}

void Fiber::trampoline_(Fiber* self) {
#if GVFS_FIBER_ASAN
  __sanitizer_finish_switch_fiber(nullptr, &self->main_.stack_bottom_,
                                  &self->main_.stack_size_);
#endif
  self->entry_(self->arg_);  // must not throw (kernel trampoline catches)
  self->finished_ = true;
#if GVFS_FIBER_TSAN
  __tsan_switch_to_fiber(self->main_.tsan_fiber_, 0);
#endif
#if GVFS_FIBER_ASAN
  // nullptr fake-stack save: this fiber never runs again, release its fake
  // frames instead of saving them.
  __sanitizer_start_switch_fiber(nullptr, self->main_.stack_bottom_,
                                 self->main_.stack_size_);
#endif
  self->switch_(self->ctx_, self->main_.ctx_);
  die("finished fiber resumed");
}

}  // namespace gvfs::sim::fiber
