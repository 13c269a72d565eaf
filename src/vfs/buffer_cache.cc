#include "vfs/buffer_cache.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace gvfs::vfs {

namespace {
constexpr std::size_t kMinTableSize = 16;
}  // namespace

BufferCache::BufferCache(u64 capacity_bytes, u32 page_size)
    : page_size_(page_size),
      capacity_pages_(std::max<u64>(1, capacity_bytes / page_size)) {}

u32 BufferCache::find_(u64 file, u64 page) const {
  if (table_.empty()) return kNil;
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = home_(file, page);; i = (i + 1) & mask) {
    u32 slot = table_[i];
    if (slot == kNil) return kNil;
    const Entry& e = slab_[slot];
    if (e.file == file && e.page == page) return slot;
  }
}

void BufferCache::table_place_(u32 slot) {
  const std::size_t mask = table_.size() - 1;
  std::size_t i = home_(slab_[slot].file, slab_[slot].page);
  while (table_[i] != kNil) i = (i + 1) & mask;
  table_[i] = slot;
}

void BufferCache::table_erase_(u32 slot) {
  const std::size_t mask = table_.size() - 1;
  std::size_t hole = home_(slab_[slot].file, slab_[slot].page);
  while (table_[hole] != slot) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull each later member of the probe run into
  // the hole unless that would put it before its home bucket.
  for (std::size_t j = (hole + 1) & mask; table_[j] != kNil; j = (j + 1) & mask) {
    const Entry& e = slab_[table_[j]];
    std::size_t home = home_(e.file, e.page);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      table_[hole] = table_[j];
      hole = j;
    }
  }
  table_[hole] = kNil;
}

void BufferCache::grow_table_() {
  table_.assign(std::max(kMinTableSize, table_.size() * 2), kNil);
  for (u32 slot = 0; slot < slab_.size(); ++slot) {
    if (slab_[slot].live) table_place_(slot);
  }
}

void BufferCache::unlink_(u32 slot) {
  Entry& e = slab_[slot];
  if (e.prev != kNil) {
    slab_[e.prev].next = e.next;
  } else {
    head_ = e.next;
  }
  if (e.next != kNil) {
    slab_[e.next].prev = e.prev;
  } else {
    tail_ = e.prev;
  }
}

void BufferCache::push_front_(u32 slot) {
  Entry& e = slab_[slot];
  e.prev = kNil;
  e.next = head_;
  if (head_ != kNil) {
    slab_[head_].prev = slot;
  } else {
    tail_ = slot;
  }
  head_ = slot;
}

void BufferCache::touch_(u32 slot) {
  if (slot == head_) return;
  unlink_(slot);
  push_front_(slot);
}

void BufferCache::add_(u64 file, u64 page, blob::BlobRef data, bool dirty) {
  if ((resident_ + 1) * 4 > table_.size() * 3) grow_table_();
  u32 slot = free_;
  if (slot != kNil) {
    free_ = slab_[slot].next;
  } else {
    assert(slab_.size() < kNil);
    slot = static_cast<u32>(slab_.size());
    slab_.emplace_back();
  }
  Entry& e = slab_[slot];
  e.file = file;
  e.page = page;
  e.data = std::move(data);
  e.live = true;
  e.dirty = dirty;
  push_front_(slot);
  table_place_(slot);
  ++resident_;
  if (dirty) dirty_count_.add(1);
}

void BufferCache::remove_(u32 slot) {
  table_erase_(slot);
  unlink_(slot);
  Entry& e = slab_[slot];
  if (e.dirty) dirty_count_.sub(1);
  e.data.reset();
  e.live = false;
  e.dirty = false;
  e.prev = kNil;
  e.next = free_;
  free_ = slot;
  --resident_;
}

std::optional<blob::BlobRef> BufferCache::lookup(u64 file, u64 page_index) {
  u32 slot = find_(file, page_index);
  if (slot == kNil) {
    misses_.inc();
    return std::nullopt;
  }
  hits_.inc();
  touch_(slot);
  return slab_[slot].data;
}

void BufferCache::insert(sim::Process& p, u64 file, u64 page_index,
                         blob::BlobRef data, bool dirty) {
  u32 slot = find_(file, page_index);
  while (slot == kNil && resident_ >= capacity_pages_) {
    // Another process may have inserted this page while a writeback yielded.
    if (evict_one_(p)) slot = find_(file, page_index);
  }
  if (slot == kNil) {
    add_(file, page_index, std::move(data), dirty);
    return;
  }
  Entry& e = slab_[slot];
  // A clean refill must never clobber staged (newer) data; keep the dirty
  // page as-is, just refresh recency.
  if (!e.dirty || dirty) {
    if (dirty && !e.dirty) dirty_count_.add(1);
    e.data = std::move(data);
    e.dirty = dirty;
  }
  touch_(slot);
}

bool BufferCache::evict_one_(sim::Process& p) {
  assert(tail_ != kNil);
  u32 victim = tail_;
  if (!slab_[victim].dirty) {
    evictions_.inc();
    remove_(victim);
    return false;
  }
  const u64 file = slab_[victim].file;
  const u64 page = slab_[victim].page;
  const blob::BlobRef data = slab_[victim].data;
  if (writeback_) writeback_(p, file, page, data);
  // Evict the page only if it still holds what was written: meanwhile it may
  // have been re-dirtied (kept, a later pass picks another victim) or dropped.
  u32 slot = find_(file, page);
  if (slot != kNil && slab_[slot].data == data) {
    evictions_.inc();
    remove_(slot);
  }
  return true;
}

void BufferCache::mark_clean(u64 file, u64 page_index, const blob::BlobRef& written) {
  u32 slot = find_(file, page_index);
  if (slot == kNil) return;
  Entry& e = slab_[slot];
  if (e.dirty && e.data == written) {
    e.dirty = false;
    dirty_count_.sub(1);
  }
}

u64 BufferCache::flush(sim::Process& p, u64 file) {
  // Copy the dirty pages out first: the writeback yields, and other
  // processes may reshape the cache meanwhile.
  struct Dirty {
    u64 file;
    u64 page;
    blob::BlobRef data;
  };
  std::vector<Dirty> dirty;
  for (const Entry& e : slab_) {
    if (e.dirty && (file == 0 || e.file == file)) dirty.push_back({e.file, e.page, e.data});
  }
  std::sort(dirty.begin(), dirty.end(), [](const Dirty& a, const Dirty& b) {
    return a.file != b.file ? a.file < b.file : a.page < b.page;
  });
  for (const Dirty& d : dirty) {
    if (writeback_) writeback_(p, d.file, d.page, d.data);
    mark_clean(d.file, d.page, d.data);
  }
  return dirty.size();
}

std::vector<std::pair<u64, blob::BlobRef>> BufferCache::dirty_pages_of(u64 file) const {
  std::vector<std::pair<u64, blob::BlobRef>> out;
  for (const Entry& e : slab_) {
    if (e.dirty && e.file == file) out.emplace_back(e.page, e.data);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void BufferCache::invalidate_file(sim::Process& p, u64 file) {
  flush(p, file);
  for (u32 slot = 0; slot < slab_.size(); ++slot) {
    const Entry& e = slab_[slot];
    if (e.live && e.file == file && !e.dirty) remove_(slot);
  }
}

void BufferCache::discard_file(u64 file, u64 from) {
  for (u32 slot = 0; slot < slab_.size(); ++slot) {
    Entry& e = slab_[slot];
    if (!e.live || e.file != file) continue;
    const u64 start = e.page * page_size_;
    if (start >= from) {
      remove_(slot);
    } else if (e.data && start + e.data->size() > from) {
      e.data = std::make_shared<blob::SliceBlob>(e.data, 0, from - start);
    }
  }
}

std::vector<u64> BufferCache::dirty_files() const {
  std::vector<u64> out;
  for (const Entry& e : slab_) {
    if (e.dirty && std::find(out.begin(), out.end(), e.file) == out.end()) {
      out.push_back(e.file);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void BufferCache::drop_all() {
  slab_ = std::vector<Entry>();
  table_ = std::vector<u32>();
  head_ = tail_ = free_ = kNil;
  resident_ = 0;
  dirty_count_.set(0);
}

}  // namespace gvfs::vfs
