#include "blob/blob.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

#include "common/hash.h"
#include "common/rng.h"

namespace gvfs::blob {

// ------------------------------------------------------------------- Blob --

bool Blob::is_zero_range(u64 offset, u64 len) const {
  // Generic fallback: materialize in chunks and check.
  std::array<u8, 16_KiB> buf;
  while (len > 0) {
    u64 n = std::min<u64>(len, buf.size());
    read(offset, std::span<u8>(buf.data(), n));
    for (u64 i = 0; i < n; ++i) {
      if (buf[i] != 0) return false;
    }
    offset += n;
    len -= n;
  }
  return true;
}

u64 Blob::fingerprint(u64 seed, u64 offset, u64 len) const {
  // Generic byte-exact fallback: absorb the range in bounded chunks.
  std::array<u8, 64_KiB> buf;
  u64 h = fingerprint_init(seed);
  while (len > 0) {
    u64 n = std::min<u64>(len, buf.size());
    read(offset, std::span<u8>(buf.data(), n));
    h = fnv1a64(std::span<const u8>(buf.data(), n), h);
    offset += n;
    len -= n;
  }
  return h;
}

// -------------------------------------------------------------- BytesBlob --

void BytesBlob::read(u64 offset, std::span<u8> out) const {
  std::memcpy(out.data(), data_.data() + offset, out.size());
}

bool BytesBlob::is_zero_range(u64 offset, u64 len) const {
  for (u64 i = 0; i < len; ++i) {
    if (data_[offset + i] != 0) return false;
  }
  return true;
}

namespace {

// Cheap gzip-class estimate: per 4 KiB page, all-zero pages collapse to a
// few bytes; otherwise scale by byte diversity (few distinct values =>
// highly compressible).
u64 estimate_compressed(std::span<const u8> data, u64 offset, u64 len) {
  u64 total = 16;
  u64 end = offset + len;
  while (offset < end) {
    u64 n = std::min<u64>(kPage, end - offset);
    std::array<bool, 256> seen{};
    u32 distinct = 0;
    bool all_zero = true;
    for (u64 i = 0; i < n; ++i) {
      u8 b = data[offset + i];
      if (b != 0) all_zero = false;
      if (!seen[b]) {
        seen[b] = true;
        ++distinct;
      }
    }
    if (all_zero) {
      total += 8;
    } else {
      double factor = 0.1 + 0.9 * (static_cast<double>(distinct) / 256.0);
      total += static_cast<u64>(static_cast<double>(n) * factor);
    }
    offset += n;
  }
  // A real compressor never expands: it frames the raw bytes instead. The
  // clamp keeps the 16-byte header from dominating tiny ranges.
  return std::min(total, len);
}

}  // namespace

u64 BytesBlob::compressed_size(u64 offset, u64 len) const {
  return estimate_compressed(data_, offset, len);
}

// --------------------------------------------------------------- ZeroBlob --

void ZeroBlob::read(u64, std::span<u8> out) const {
  std::memset(out.data(), 0, out.size());
}

// ---------------------------------------------------------- SyntheticBlob --

SyntheticBlob::SyntheticBlob(u64 seed, u64 size, double zero_fraction,
                             double nonzero_compress_ratio)
    : seed_(seed),
      size_(size),
      zero_fraction_(std::clamp(zero_fraction, 0.0, 1.0)),
      nonzero_ratio_(std::max(nonzero_compress_ratio, 1.0)) {}

bool SyntheticBlob::page_is_zero(u64 page_index) const {
  // Zero pages occur in runs (free-memory regions are contiguous), so the
  // decision is made per 16-page (64 KiB) run: hash the run index against
  // the seed and compare with the zero fraction. Expectation matches the
  // fraction exactly; block-granular zero maps then filter at close to the
  // page-level fraction, as the paper observed for 8 KB NFS reads.
  constexpr u64 kRunPages = 16;
  u64 h = stateless_rand(seed_, page_index / kRunPages);
  double u = static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
  return u < zero_fraction_;
}

void SyntheticBlob::read(u64 offset, std::span<u8> out) const {
  u64 pos = 0;
  while (pos < out.size()) {
    u64 abs = offset + pos;
    u64 page = abs / kPage;
    u64 page_end = (page + 1) * kPage;
    u64 n = std::min<u64>(out.size() - pos, page_end - abs);
    if (page_is_zero(page)) {
      std::memset(out.data() + pos, 0, n);
    } else {
      // Deterministic bytes derived from (seed, absolute 8-byte lane).
      for (u64 i = 0; i < n; ++i) {
        u64 a = abs + i;
        u64 word = stateless_rand(seed_ ^ 0x5bd1e995u, a >> 3);
        out[pos + i] = static_cast<u8>(word >> ((a & 7) * 8));
      }
    }
    pos += n;
  }
}

bool SyntheticBlob::is_zero_range(u64 offset, u64 len) const {
  if (len == 0) return true;
  u64 first = offset / kPage;
  u64 last = (offset + len - 1) / kPage;
  for (u64 p = first; p <= last; ++p) {
    if (!page_is_zero(p)) return false;
  }
  return true;
}

u64 SyntheticBlob::compressed_size(u64 offset, u64 len) const {
  if (len == 0) return 16;
  u64 total = 16;
  u64 first = offset / kPage;
  u64 last = (offset + len - 1) / kPage;
  for (u64 p = first; p <= last; ++p) {
    u64 page_start = p * kPage;
    u64 page_end = std::min(page_start + kPage, offset + len);
    u64 n = page_end - std::max(page_start, offset);
    if (page_is_zero(p)) {
      total += 8;
    } else {
      total += static_cast<u64>(static_cast<double>(n) / nonzero_ratio_);
    }
  }
  // Same never-expands clamp as estimate_compressed.
  return std::min(total, len);
}

u64 SyntheticBlob::fingerprint(u64 seed, u64 offset, u64 len) const {
  if (len == 0) return fingerprint_init(seed);
  if (is_zero_range(offset, len)) {
    // Matches ZeroBlob exactly, so an all-zero synthetic block dedups
    // against filtered zero blocks regardless of seed_.
    return fnv1a64_zero_run(fingerprint_init(seed), len);
  }
  // Structural O(pages-in-range) digest: the bytes of [offset, offset+len)
  // are fully determined by (seed_, absolute offset, per-page zero bits) —
  // nonzero_ratio_ only shapes compressed_size — so hashing that structure
  // is content-faithful without materializing gigabytes.
  u64 h = hash_combine(fingerprint_init(seed), 0x53594e5442ULL);  // "SYNTB"
  h = hash_combine(h, seed_);
  h = hash_combine(h, offset);
  h = hash_combine(h, len);
  u64 first = offset / kPage;
  u64 last = (offset + len - 1) / kPage;
  for (u64 p = first; p <= last; ++p) {
    h = hash_combine(h, page_is_zero(p) ? 1 : 0);
  }
  return h;
}

// --------------------------------------------------------------- ViewBlob --

void ViewBlob::read(u64 offset, std::span<u8> out) const {
  std::memcpy(out.data(), data_.data() + offset, out.size());
}

bool ViewBlob::is_zero_range(u64 offset, u64 len) const {
  for (u64 i = 0; i < len; ++i) {
    if (data_[offset + i] != 0) return false;
  }
  return true;
}

u64 ViewBlob::compressed_size(u64 offset, u64 len) const {
  // Same estimate as BytesBlob (identical bytes must compress identically).
  return estimate_compressed(data_, offset, len);
}

// -------------------------------------------------------------- SliceBlob --

namespace {

// Drop one child ref of a composite blob. Only a ref that is the child's last
// goes onto the worklist `out` (whose release then frees it); any other is
// reset at once, since dropping it frees nothing. So a composite whose
// children live on elsewhere (pages of a cached block) dies without growing a
// worklist, and a child held twice by the same parent is queued when its
// second ref, then the last, is dropped.
void release_child(BlobRef& child, std::vector<BlobRef>& out) {
  if (child.use_count() == 1) {
    out.push_back(std::move(child));
  } else {
    child.reset();
  }
}

}  // namespace

SliceBlob::SliceBlob(BlobRef base, u64 offset, u64 len)
    : base_(std::move(base)), off_(offset), len_(len) {}

SliceBlob::~SliceBlob() {
  std::vector<BlobRef> refs;
  release_child(base_, refs);
  if (!refs.empty()) release_child_refs(std::move(refs));
}

void SliceBlob::detach_child_refs(std::vector<BlobRef>& out) { release_child(base_, out); }

// ------------------------------------------------------------- PiecesBlob --

namespace {

class PiecesBlob final : public Blob {
 public:
  using Blob::compressed_size;
  PiecesBlob(std::vector<Piece> pieces, u64 size)
      : pieces_(std::move(pieces)), size_(size) {}

  ~PiecesBlob() override {
    std::vector<BlobRef> refs;
    detach_child_refs(refs);
    if (!refs.empty()) release_child_refs(std::move(refs));
  }

  void detach_child_refs(std::vector<BlobRef>& out) override {
    for (Piece& pc : pieces_) release_child(pc.src, out);
  }

  [[nodiscard]] u64 size() const override { return size_; }

  void read(u64 offset, std::span<u8> out) const override {
    const u64 end = offset + out.size();
    u64 pos = offset;  // bytes before pos are filled
    for (auto it = first_(offset); it != pieces_.end() && it->start < end; ++it) {
      u64 lo = std::max(it->start, offset);
      u64 hi = std::min(it->start + it->len, end);
      if (pos < lo) std::memset(out.data() + (pos - offset), 0, lo - pos);
      it->src->read(it->src_off + (lo - it->start), out.subspan(lo - offset, hi - lo));
      pos = hi;
    }
    if (pos < end) std::memset(out.data() + (pos - offset), 0, end - pos);
  }

  [[nodiscard]] bool is_zero_range(u64 offset, u64 len) const override {
    for (auto it = first_(offset); it != pieces_.end() && it->start < offset + len; ++it) {
      u64 lo = std::max(it->start, offset);
      u64 hi = std::min(it->start + it->len, offset + len);
      if (!it->src->is_zero_range(it->src_off + (lo - it->start), hi - lo)) return false;
    }
    return true;
  }

  [[nodiscard]] u64 compressed_size(u64 offset, u64 len) const override {
    u64 total = 16;
    u64 covered = 0;
    for (auto it = first_(offset); it != pieces_.end() && it->start < offset + len; ++it) {
      u64 lo = std::max(it->start, offset);
      u64 hi = std::min(it->start + it->len, offset + len);
      total += it->src->compressed_size(it->src_off + (lo - it->start), hi - lo);
      covered += hi - lo;
    }
    total += (len - covered) / 1000;  // holes compress like zeros
    return std::min(total, len);     // never model expansion
  }

 private:
  // The first piece that ends past `offset`: every piece from there on that
  // starts before a range's end overlaps it.
  [[nodiscard]] std::vector<Piece>::const_iterator first_(u64 offset) const {
    return std::partition_point(pieces_.begin(), pieces_.end(), [offset](const Piece& pc) {
      return pc.start + pc.len <= offset;
    });
  }

  std::vector<Piece> pieces_;
  u64 size_;
};

}  // namespace

BlobRef make_pieces(std::vector<Piece> pieces, u64 size) {
#ifndef NDEBUG
  u64 end = 0;
  for (const Piece& pc : pieces) {
    assert(pc.len > 0 && pc.start >= end && pc.start + pc.len <= size);
    assert(pc.src && pc.src_off + pc.len <= pc.src->size());
    end = pc.start + pc.len;
  }
#endif
  return std::make_shared<PiecesBlob>(std::move(pieces), size);
}

// ---------------------------------------------------------------- helpers --

void release_child_refs(std::vector<BlobRef> refs) {
  while (!refs.empty()) {
    BlobRef ref = std::move(refs.back());
    refs.pop_back();
    if (ref && ref.use_count() == 1) {
      // Sole owner: steal the children before the destructor runs so the
      // chain unwinds on this worklist, not on the call stack.
      const_cast<Blob*>(ref.get())->detach_child_refs(refs);
    }
  }
}

u64 range_hash(const Blob& b, u64 offset, u64 len) {
  std::array<u8, 64_KiB> buf;
  u64 h = kFnvOffset;
  while (len > 0) {
    u64 n = std::min<u64>(len, buf.size());
    b.read(offset, std::span<u8>(buf.data(), n));
    h = fnv1a64(std::span<const u8>(buf.data(), n), h);
    offset += n;
    len -= n;
  }
  return h;
}

BlobRef make_bytes(std::vector<u8> data) {
  return std::make_shared<BytesBlob>(std::move(data));
}

BlobRef make_bytes(std::span<const u8> data) {
  return std::make_shared<BytesBlob>(std::vector<u8>(data.begin(), data.end()));
}

BlobRef make_view(std::shared_ptr<const void> owner,
                  std::span<const u8> data) {
  return std::make_shared<ViewBlob>(std::move(owner), data);
}

BlobRef make_zero(u64 size) { return std::make_shared<ZeroBlob>(size); }

BlobRef zero_ref(u64 size) {
  // One shared control block per hot size; every zero-filtered block and
  // empty read aliases these instead of allocating a fresh ZeroBlob.
  static const BlobRef kEmpty = make_zero(0);
  static const BlobRef k4K = make_zero(4_KiB);
  static const BlobRef k8K = make_zero(8_KiB);
  static const BlobRef k16K = make_zero(16_KiB);
  static const BlobRef k32K = make_zero(32_KiB);
  static const BlobRef k64K = make_zero(64_KiB);
  switch (size) {
    case 0: return kEmpty;
    case 4_KiB: return k4K;
    case 8_KiB: return k8K;
    case 16_KiB: return k16K;
    case 32_KiB: return k32K;
    case 64_KiB: return k64K;
    default: return make_zero(size);
  }
}

BlobRef make_synthetic(u64 seed, u64 size, double zero_fraction,
                       double nonzero_compress_ratio) {
  return std::make_shared<SyntheticBlob>(seed, size, zero_fraction,
                                         nonzero_compress_ratio);
}

}  // namespace gvfs::blob
