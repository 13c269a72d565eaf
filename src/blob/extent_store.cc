#include "blob/extent_store.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace gvfs::blob {

void ExtentStore::reset(BlobRef content) {
  extents_.clear();
  size_ = content ? content->size() : 0;
  if (content && size_ > 0) {
    u64 len = content->size();
    extents_.emplace(0, Extent{len, std::move(content), 0});
  }
}

void ExtentStore::punch_(u64 offset, u64 len) {
  if (len == 0) return;
  u64 end = offset + len;
  auto it = extents_.upper_bound(offset);
  if (it != extents_.begin()) --it;
  while (it != extents_.end() && it->first < end) {
    u64 start = it->first;
    Extent ext = it->second;
    u64 ext_end = start + ext.len;
    if (ext_end <= offset) {
      ++it;
      continue;
    }
    it = extents_.erase(it);
    if (start < offset) {
      // Keep the left remainder [start, offset).
      extents_.emplace(start, Extent{offset - start, ext.src, ext.src_off});
    }
    if (ext_end > end) {
      // Keep the right remainder [end, ext_end).
      it = extents_
               .emplace(end, Extent{ext_end - end, ext.src,
                                    ext.src_off + (end - start)})
               .first;
      ++it;
    }
  }
}

void ExtentStore::read(u64 offset, std::span<u8> out) const {
  u64 pos = 0;
  while (pos < out.size()) {
    u64 abs = offset + pos;
    auto it = extents_.upper_bound(abs);
    if (it != extents_.begin()) {
      auto prev = std::prev(it);
      if (abs < prev->first + prev->second.len) {
        u64 n = std::min<u64>(out.size() - pos, prev->first + prev->second.len - abs);
        prev->second.src->read(prev->second.src_off + (abs - prev->first),
                               out.subspan(pos, n));
        pos += n;
        continue;
      }
    }
    u64 next_start = it == extents_.end() ? offset + out.size() : it->first;
    u64 n = std::min<u64>(out.size() - pos, std::max(next_start, abs + 1) - abs);
    std::memset(out.data() + pos, 0, n);
    pos += n;
  }
}

void ExtentStore::write(u64 offset, std::span<const u8> data) {
  if (data.empty()) return;
  write_blob(offset, make_bytes(data), 0, data.size());
}

void ExtentStore::write_blob(u64 offset, BlobRef src, u64 src_off, u64 len) {
  if (len == 0) return;
  assert(src && src_off + len <= src->size());
  punch_(offset, len);
  extents_.emplace(offset, Extent{len, std::move(src), src_off});
  size_ = std::max(size_, offset + len);
}

void ExtentStore::truncate(u64 new_size) {
  if (new_size < size_) {
    punch_(new_size, size_ - new_size);
  }
  size_ = new_size;
}

bool ExtentStore::is_zero_range(u64 offset, u64 len) const {
  auto it = extents_.upper_bound(offset);
  if (it != extents_.begin()) --it;
  for (; it != extents_.end() && it->first < offset + len; ++it) {
    u64 start = it->first;
    u64 lo = std::max(start, offset);
    u64 hi = std::min(start + it->second.len, offset + len);
    if (lo < hi &&
        !it->second.src->is_zero_range(it->second.src_off + (lo - start), hi - lo)) {
      return false;
    }
  }
  return true;
}

u64 ExtentStore::compressed_size(u64 offset, u64 len) const {
  u64 total = 16;
  u64 covered = 0;
  auto it = extents_.upper_bound(offset);
  if (it != extents_.begin()) --it;
  for (; it != extents_.end() && it->first < offset + len; ++it) {
    u64 start = it->first;
    u64 lo = std::max(start, offset);
    u64 hi = std::min(start + it->second.len, offset + len);
    if (lo < hi) {
      total += it->second.src->compressed_size(it->second.src_off + (lo - start), hi - lo);
      covered += hi - lo;
    }
  }
  total += (len - covered) / 1000;
  return std::min(total, len);  // never model expansion
}

u64 ExtentStore::materialized_bytes() const {
  u64 total = 0;
  for (const auto& [start, ext] : extents_) {
    if (dynamic_cast<const BytesBlob*>(ext.src.get()) != nullptr) {
      total += ext.len;
    }
  }
  return total;
}

BlobRef ExtentStore::read_slice(u64 offset, u64 len) const {
  if (offset >= size_) return make_zero(0);
  len = std::min(len, size_ - offset);
  std::vector<Piece> pieces;
  auto it = extents_.upper_bound(offset);
  if (it != extents_.begin()) --it;
  for (; it != extents_.end() && it->first < offset + len; ++it) {
    u64 start = it->first;
    u64 lo = std::max(start, offset);
    u64 hi = std::min(start + it->second.len, offset + len);
    if (lo < hi) {
      pieces.push_back(Piece{lo - offset, hi - lo, it->second.src,
                             it->second.src_off + (lo - start)});
    }
  }
  return make_pieces(std::move(pieces), len);
}

BlobRef ExtentStore::snapshot() const {
  std::vector<Piece> pieces;
  pieces.reserve(extents_.size());
  for (const auto& [start, ext] : extents_) {
    pieces.push_back(Piece{start, ext.len, ext.src, ext.src_off});
  }
  return make_pieces(std::move(pieces), size_);
}

}  // namespace gvfs::blob
