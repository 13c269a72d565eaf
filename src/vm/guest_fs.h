// Guest filesystem layout model: maps the files an in-VM application touches
// onto extents of the virtual disk, so guest-level file I/O becomes .vmdk
// block traffic at the VM monitor — the only thing GVFS ever sees.
//
// Two allocation modes per file:
//  * contiguous — one extent with a growth reserve (large streaming files,
//    ext2's best case);
//  * fragmented — a chain of small extents scattered deterministically over
//    the data region (an aged filesystem full of small files). Fragmented
//    files defeat read coalescing, which is what makes cold small-file
//    workloads over a WAN as expensive as the paper measured.
#pragma once

#include <string>
#include <unordered_map>

#include "blob/blob.h"
#include "common/status.h"
#include "sim/kernel.h"
#include "vm/vm_monitor.h"

namespace gvfs::vm {

class GuestFs {
 public:
  // File data is allocated in the virtual disk region [data_base, data_limit).
  explicit GuestFs(VmMonitor& vm, u64 data_base = 256_MiB,
                   u64 data_limit = u64{1400} * 1_MiB);

  // Declare a file. `initial_size` bytes are considered already on disk
  // (part of the installed image); `reserve` caps contiguous growth
  // (default: generous). Fragmented files grow extent by extent.
  Status add_file(const std::string& name, u64 initial_size, u64 reserve = 0,
                  bool fragmented = false);

  [[nodiscard]] bool exists(const std::string& name) const {
    return files_.count(name) != 0;
  }
  [[nodiscard]] u64 size(const std::string& name) const;

  Result<blob::BlobRef> read(sim::Process& p, const std::string& name, u64 offset,
                             u64 len);
  Result<blob::BlobRef> read_all(sim::Process& p, const std::string& name);
  Status write(sim::Process& p, const std::string& name, u64 offset,
               const blob::BlobRef& data);
  Status append(sim::Process& p, const std::string& name, const blob::BlobRef& data);
  Status truncate(const std::string& name, u64 size);
  Status remove(const std::string& name);

  // Guest fsync / journal commit.
  Status sync(sim::Process& p) { return vm_.sync(p); }

  // Raw metadata-region read (inode/directory block models used by workload
  // populations); goes through the guest cache like any disk block.
  Status vm_read_meta(sim::Process& p, u64 disk_off, u64 len) {
    return vm_.disk_read(p, disk_off, len).status();
  }

  [[nodiscard]] VmMonitor& vm() { return vm_; }

 private:
  struct GFile {
    bool fragmented = false;
    u64 size = 0;
    // contiguous:
    u64 disk_off = 0;
    u64 capacity = 0;
    // fragmented: global slot sequence indices [first_slot, first_slot+extents)
    u64 first_slot = 0;
    u64 extents = 0;
  };

  // Disk offset of global fragment slot-sequence index i (a bijection onto
  // the fragment area, scattering consecutive slots far apart).
  [[nodiscard]] u64 slot_offset_(u64 slot_index) const;

  // Per-segment I/O for fragmented files.
  Result<blob::BlobRef> frag_read_(sim::Process& p, const GFile& f, u64 offset, u64 len);
  Status frag_write_(sim::Process& p, GFile& f, u64 offset, const blob::BlobRef& data);
  Status ensure_extents_(GFile& f, u64 needed_bytes);

  VmMonitor& vm_;
  std::unordered_map<std::string, GFile> files_;
  u64 contig_next_;   // bump pointer for contiguous files (low half)
  u64 frag_slots_;    // number of fragment slots (high half)
  u64 frag_next_slot_ = 0;
  u64 frag_base_;
  u64 stride_;        // odd stride coprime with frag_slots_
};

}  // namespace gvfs::vm
