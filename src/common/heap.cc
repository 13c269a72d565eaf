#include "common/heap.h"

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace gvfs {

#ifdef __GLIBC__

HeapReleaseScope::HeapReleaseScope() : free_at_start_(mallinfo2().fordblks) {}

HeapReleaseScope::~HeapReleaseScope() {
  if (mallinfo2().fordblks > free_at_start_ + kMinFreedBytes) malloc_trim(0);
}

#else

HeapReleaseScope::HeapReleaseScope() = default;
HeapReleaseScope::~HeapReleaseScope() = default;

#endif

}  // namespace gvfs
