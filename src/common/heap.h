// Giving a torn-down object graph's heap back to the OS.
//
// glibc keeps the pages of freed brk-heap chunks resident: a 1,000-node
// testbed frees ~2 GiB at teardown and most of it stays in the process's
// RSS. The next testbed then reuses that memory only partly (its large
// vectors land in the heap once glibc's dynamic mmap threshold has risen)
// and grows the heap around it, so a process that builds several such
// testbeds in turn peaks higher with each one.
//
// A HeapReleaseScope, when it is destroyed, calls malloc_trim(0) if the
// process holds more than kMinFreedBytes of resident anonymous memory
// beyond what malloc has handed out: freed heap pages that glibc kept.
// Declared as the first member of an owner, it is destroyed last, after
// everything the owner allocated is gone. The gate asks what is resident,
// not how much the free lists grew: free bytes also count pages an earlier
// trim already gave back, so an owner that refills them and frees them
// again grows no free list. It keeps small lifetimes cheap: trimming a heap
// that is about to be refilled only makes the next owner fault its pages
// back in. Outside glibc on Linux it does nothing.
#pragma once

#include <cstddef>

#include "common/types.h"

namespace gvfs {

class HeapReleaseScope {
 public:
  static constexpr std::size_t kMinFreedBytes = 64_MiB;

  HeapReleaseScope() = default;
  ~HeapReleaseScope();
  HeapReleaseScope(const HeapReleaseScope&) = delete;
  HeapReleaseScope& operator=(const HeapReleaseScope&) = delete;
};

}  // namespace gvfs
