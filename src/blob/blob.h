// Content sources ("blobs") back every file byte in the repository.
//
// VM state files are gigabytes; experiments only care about which bytes are
// zero, how compressible they are, and how many cross the wire. Blobs let a
// file declare its content (seeded-synthetic, zeros, or real bytes) and
// synthesize any byte range on demand, so a 1.6 GB virtual disk costs a few
// hundred bytes of descriptor until somebody actually reads it — while unit
// tests still push real bytes end-to-end through the full protocol stack and
// verify them.
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "common/hash.h"
#include "common/types.h"

namespace gvfs::blob {

// Page granularity at which zero-ness and compressibility are tracked.
// 4 KiB matches both x86 pages (memory state files) and common FS blocks.
constexpr u64 kPage = 4_KiB;

// Default seed for content fingerprints (dedup keys). A fingerprint is the
// seeded FNV-1a state after absorbing the range's bytes, starting from
// fingerprint_init(seed); equal bytes under equal seeds hash equal, and the
// seed keeps fingerprints distinct from the unseeded range_hash values used
// by the tests' integrity checks.
constexpr u64 kDefaultFingerprintSeed = 0x6776667364647031ULL;  // "gvfsddp1"

constexpr u64 fingerprint_init(u64 seed) { return mix64(seed ^ kFnvOffset); }

class Blob {
 public:
  virtual ~Blob() = default;

  [[nodiscard]] virtual u64 size() const = 0;

  // Copy bytes [offset, offset+out.size()) into `out`.
  // Precondition: the range lies within the blob.
  virtual void read(u64 offset, std::span<u8> out) const = 0;

  // True iff every byte in [offset, offset+len) is zero.
  [[nodiscard]] virtual bool is_zero_range(u64 offset, u64 len) const;

  // Estimated size of [offset, offset+len) after gzip-class compression.
  // Every override clamps its model to len: a simulated compressor never
  // expands (it would ship the raw bytes instead, as real framing does).
  [[nodiscard]] virtual u64 compressed_size(u64 /*offset*/, u64 len) const {
    return len;
  }

  [[nodiscard]] u64 compressed_size() const { return compressed_size(0, size()); }

  // Seeded 64-bit content fingerprint of [offset, offset+len): the FNV-1a
  // state from fingerprint_init(seed) after the range's bytes. Equal bytes
  // => equal fingerprint for a given seed; synthetic blobs override this so
  // gigabyte images fingerprint in O(1) per block without materializing
  // (structural digests may differ from the byte-exact default across blob
  // representations, which only costs dedup hits, never correctness).
  [[nodiscard]] virtual u64 fingerprint(u64 seed, u64 offset, u64 len) const;

  // Teardown hook: a composite blob moves each owned child ref that is the
  // child's last into `out` and drops the others. release_child_refs() calls
  // it only on a sole-owner blob that is about to be destroyed, so long
  // slice/pieces chains (one link per buffered write) unwind iteratively
  // instead of one stack frame per link.
  virtual void detach_child_refs(
      std::vector<std::shared_ptr<const Blob>>& /*out*/) {}
};

using BlobRef = std::shared_ptr<const Blob>;

// Drop every ref in `refs`; any ref that is the sole owner of a composite
// blob has its children stolen onto the worklist before it dies, keeping the
// destruction depth O(1) no matter how long the chain is.
void release_child_refs(std::vector<BlobRef> refs);

// Real bytes held in memory; the workhorse for tests and small files.
class BytesBlob final : public Blob {
 public:
  using Blob::compressed_size;
  explicit BytesBlob(std::vector<u8> data) : data_(std::move(data)) {}

  [[nodiscard]] u64 size() const override { return data_.size(); }
  void read(u64 offset, std::span<u8> out) const override;
  [[nodiscard]] bool is_zero_range(u64 offset, u64 len) const override;
  [[nodiscard]] u64 compressed_size(u64 offset, u64 len) const override;

  [[nodiscard]] const std::vector<u8>& bytes() const { return data_; }

 private:
  std::vector<u8> data_;
};

// All zeros, any size.
class ZeroBlob final : public Blob {
 public:
  using Blob::compressed_size;
  explicit ZeroBlob(u64 size) : size_(size) {}
  [[nodiscard]] u64 size() const override { return size_; }
  void read(u64 offset, std::span<u8> out) const override;
  [[nodiscard]] bool is_zero_range(u64, u64) const override { return true; }
  [[nodiscard]] u64 compressed_size(u64, u64 len) const override {
    // Long zero runs compress to roughly 1/1000 under gzip; the clamp keeps
    // tiny ranges from "compressing" larger than raw (the 16-byte header
    // used to dominate for len < ~16 bytes).
    return std::min(len, len / 1000 + 16);
  }
  [[nodiscard]] u64 fingerprint(u64 seed, u64 /*offset*/, u64 len) const override {
    // O(log len): fast-forward the FNV state over the zero run.
    return fnv1a64_zero_run(fingerprint_init(seed), len);
  }

 private:
  u64 size_;
};

// Deterministic synthetic content: a page-granular zero map plus seeded
// pseudo-random bytes for non-zero pages with a declared compressibility.
// Used to model VM memory state ("many zero-filled blocks" — §3.2.2) and
// virtual disks without storing them.
class SyntheticBlob final : public Blob {
 public:
  using Blob::compressed_size;
  // `zero_fraction` of pages are all-zero, deterministically scattered by
  // `seed`; non-zero pages compress by `nonzero_compress_ratio` (e.g. 2.5
  // means a page shrinks to 40 % of its size).
  SyntheticBlob(u64 seed, u64 size, double zero_fraction,
                double nonzero_compress_ratio);

  [[nodiscard]] u64 size() const override { return size_; }
  void read(u64 offset, std::span<u8> out) const override;
  [[nodiscard]] bool is_zero_range(u64 offset, u64 len) const override;
  [[nodiscard]] u64 compressed_size(u64 offset, u64 len) const override;
  [[nodiscard]] u64 fingerprint(u64 seed, u64 offset, u64 len) const override;

  [[nodiscard]] bool page_is_zero(u64 page_index) const;
  [[nodiscard]] u64 seed() const { return seed_; }
  [[nodiscard]] double zero_fraction() const { return zero_fraction_; }

 private:
  u64 seed_;
  u64 size_;
  double zero_fraction_;
  double nonzero_ratio_;
};

// Bytes owned by someone else (an RPC receive buffer, an mmap'd region…):
// a span plus a shared handle that keeps the owner alive. The zero-copy
// decode path wraps XDR payloads in these instead of copying them out.
class ViewBlob final : public Blob {
 public:
  using Blob::compressed_size;
  ViewBlob(std::shared_ptr<const void> owner, std::span<const u8> data)
      : owner_(std::move(owner)), data_(data) {}

  [[nodiscard]] u64 size() const override { return data_.size(); }
  void read(u64 offset, std::span<u8> out) const override;
  [[nodiscard]] bool is_zero_range(u64 offset, u64 len) const override;
  [[nodiscard]] u64 compressed_size(u64 offset, u64 len) const override;

  [[nodiscard]] std::span<const u8> bytes() const { return data_; }

 private:
  std::shared_ptr<const void> owner_;
  std::span<const u8> data_;
};

// A view into another blob.
class SliceBlob final : public Blob {
 public:
  using Blob::compressed_size;
  SliceBlob(BlobRef base, u64 offset, u64 len);
  ~SliceBlob() override;
  void detach_child_refs(std::vector<BlobRef>& out) override;
  [[nodiscard]] u64 size() const override { return len_; }
  void read(u64 offset, std::span<u8> out) const override {
    base_->read(off_ + offset, out);
  }
  [[nodiscard]] bool is_zero_range(u64 offset, u64 len) const override {
    return base_->is_zero_range(off_ + offset, len);
  }
  [[nodiscard]] u64 compressed_size(u64 offset, u64 len) const override {
    return base_->compressed_size(off_ + offset, len);
  }
  [[nodiscard]] u64 fingerprint(u64 seed, u64 offset, u64 len) const override {
    return base_->fingerprint(seed, off_ + offset, len);
  }

 private:
  BlobRef base_;
  u64 off_;
  u64 len_;
};

// One piece of an ordered-pieces blob: its bytes [start, start+len) are
// src[src_off, src_off+len).
struct Piece {
  u64 start = 0;
  u64 len = 0;
  BlobRef src;
  u64 src_off = 0;
};

// Immutable blob of `size` bytes made of `pieces`, which must be sorted by
// start, disjoint, non-empty and inside [0, size); bytes no piece covers read
// as zeros. This is how a read result is assembled from cached pages or
// blocks, and what ExtentStore's snapshot and read_slice return: reads find
// the first piece they touch by binary search.
// compressed_size is 16 bytes plus each piece's own estimate plus 1/1000 of
// the holes, clamped to the range, as for an ExtentStore.
BlobRef make_pieces(std::vector<Piece> pieces, u64 size);

// FNV-1a hash of a byte range, materialized in bounded chunks; the
// end-to-end integrity check used throughout the tests.
u64 range_hash(const Blob& b, u64 offset, u64 len);
inline u64 content_hash(const Blob& b) { return range_hash(b, 0, b.size()); }

// Convenience constructors.
BlobRef make_bytes(std::vector<u8> data);
BlobRef make_bytes(std::span<const u8> data);
BlobRef make_zero(u64 size);
BlobRef make_view(std::shared_ptr<const void> owner, std::span<const u8> data);
BlobRef make_synthetic(u64 seed, u64 size, double zero_fraction,
                       double nonzero_compress_ratio);

// Shared all-zero blobs for the hot block sizes (0, 4/8/16/32/64 KiB): every
// filtered zero block and empty read reuses one control block instead of
// allocating a fresh ZeroBlob. Falls back to make_zero for odd sizes.
BlobRef zero_ref(u64 size);

}  // namespace gvfs::blob
