// Giving a torn-down object graph's heap back to the OS.
//
// glibc keeps the pages of freed brk-heap chunks resident: a 1,000-node
// testbed frees ~2 GiB at teardown and most of it stays in the process's
// RSS. The next testbed then reuses that memory only partly (its large
// vectors land in the heap once glibc's dynamic mmap threshold has risen)
// and grows the heap around it, so a process that builds two or three
// such testbeds in turn peaks 15-22 % higher than one that builds one.
//
// A HeapReleaseScope notes the heap's free bytes when it is constructed
// and, when it is destroyed, calls malloc_trim(0) if they grew by more than
// kMinFreedBytes in between. Declared as the first member of an owner, it is
// destroyed last, after everything the owner allocated is gone. The gate
// keeps small lifetimes cheap: trimming a heap that is about to be refilled
// only makes the next owner fault its pages back in. Outside glibc it does
// nothing.
#pragma once

#include <cstddef>

#include "common/types.h"

namespace gvfs {

class HeapReleaseScope {
 public:
  static constexpr std::size_t kMinFreedBytes = 64_MiB;

  HeapReleaseScope();
  ~HeapReleaseScope();
  HeapReleaseScope(const HeapReleaseScope&) = delete;
  HeapReleaseScope& operator=(const HeapReleaseScope&) = delete;

 private:
  std::size_t free_at_start_ = 0;
};

}  // namespace gvfs
