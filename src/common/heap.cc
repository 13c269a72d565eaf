#include "common/heap.h"

#if defined(__GLIBC__) && defined(__linux__)
#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#endif

namespace gvfs {

#if defined(__GLIBC__) && defined(__linux__)

namespace {

// Resident anonymous bytes of the process: /proc/self/statm's resident
// pages less its file-backed and shared ones. Read with plain system calls
// into a stack buffer, so teardown allocates nothing; 0 if unreadable.
std::size_t resident_anon_bytes() {
  int fd = ::open("/proc/self/statm", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return 0;
  char buf[128];
  ssize_t n = ::read(fd, buf, sizeof buf - 1);
  ::close(fd);
  if (n <= 0) return 0;
  buf[n] = '\0';
  unsigned long size = 0, resident = 0, shared = 0;
  if (std::sscanf(buf, "%lu %lu %lu", &size, &resident, &shared) != 3 || resident < shared) {
    return 0;
  }
  return (resident - shared) * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

}  // namespace

HeapReleaseScope::~HeapReleaseScope() {
  struct mallinfo2 mi = mallinfo2();
  if (resident_anon_bytes() > mi.uordblks + mi.hblkhd + kMinFreedBytes) malloc_trim(0);
}

#else

HeapReleaseScope::~HeapReleaseScope() = default;

#endif

}  // namespace gvfs
