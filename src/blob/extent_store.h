// Mutable sparse file content: an ordered map of non-overlapping extents,
// each referencing a slice of an immutable Blob. Holes read as zeros.
// Writes of real bytes create BytesBlob extents; whole blobs can be spliced
// in without materialization (how a 320 MB memory-state file lands in the
// proxy's file cache in O(1) space).
#pragma once

#include <map>
#include <span>

#include "blob/blob.h"
#include "common/types.h"

namespace gvfs::blob {

class ExtentStore {
 public:
  ExtentStore() = default;
  explicit ExtentStore(BlobRef initial) { reset(std::move(initial)); }

  // Replace all content with a single blob (size becomes blob size).
  void reset(BlobRef content);

  [[nodiscard]] u64 size() const { return size_; }

  // Read [offset, offset+out.size()); bytes past EOF read as zero — callers
  // (the VFS layer) clamp to EOF first for POSIX semantics.
  void read(u64 offset, std::span<u8> out) const;

  // Copy real bytes in, growing the file if needed.
  void write(u64 offset, std::span<const u8> data);

  // Splice `len` bytes of `src` starting at `src_off` in at `offset`,
  // without copying. Grows the file if needed.
  void write_blob(u64 offset, BlobRef src, u64 src_off, u64 len);

  // Grow (hole-extends) or shrink (drops extents past the new end).
  void truncate(u64 new_size);

  [[nodiscard]] bool is_zero_range(u64 offset, u64 len) const;
  [[nodiscard]] u64 compressed_size(u64 offset, u64 len) const;
  [[nodiscard]] u64 compressed_size() const { return compressed_size(0, size_); }

  // Bytes of heap actually held by BytesBlob extents (observability: proves
  // the lazy design — benches assert this stays small).
  [[nodiscard]] u64 materialized_bytes() const;

  [[nodiscard]] std::size_t extent_count() const { return extents_.size(); }

  // Snapshot current content as an immutable pieces blob (make_pieces)
  // sharing the extents (copy-on-write semantics; used for file snapshots,
  // SCP transfers and read-modify-write composes). O(extent_count) — prefer
  // read_slice for small ranges.
  [[nodiscard]] BlobRef snapshot() const;

  // Immutable pieces blob of [offset, offset+len): copies only the
  // overlapping extent entries (O(log n + k)); the hot path for block/page
  // reads of large fragmented files.
  [[nodiscard]] BlobRef read_slice(u64 offset, u64 len) const;

 private:
  struct Extent {
    u64 len = 0;
    BlobRef src;
    u64 src_off = 0;
  };

  // Remove/split any extents overlapping [offset, offset+len).
  void punch_(u64 offset, u64 len);

  std::map<u64, Extent> extents_;  // key: start offset; non-overlapping
  u64 size_ = 0;
};

}  // namespace gvfs::blob
