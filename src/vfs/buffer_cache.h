// Kernel buffer/page cache model: a capacity-bounded LRU of fixed-size pages
// holding lazy data references. Shared by the local filesystem session and
// the NFS client — the paper's "memory file system buffer" whose limited
// capacity and write-through behaviour over WAN motivates the proxy disk
// cache (§1, §3.2.1).
//
// Dirty pages model kernel write staging; when a dirty page is evicted (or
// the owner flushes) a writeback callback pushes it to the backing store,
// charging whatever time that store costs.
//
// Layout: pages live in a slab vector threaded by an index-linked LRU list
// and a free list, and are found through an open-addressing table of slab
// indices. Growing the slab moves entries, and the writeback callback may
// yield to other processes that touch, re-dirty or drop pages, so no entry
// reference or slot index is held across it: the page is copied out, written,
// and looked up again by key.
#pragma once

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "blob/blob.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/types.h"
#include "sim/kernel.h"

namespace gvfs::vfs {

class BufferCache {
 public:
  // `file` is an owner-chosen file key (inode number / handle hash).
  using WritebackFn =
      std::function<void(sim::Process& p, u64 file, u64 page_index, const blob::BlobRef& data)>;

  BufferCache(u64 capacity_bytes, u32 page_size);

  [[nodiscard]] u32 page_size() const { return page_size_; }
  [[nodiscard]] u64 capacity_pages() const { return capacity_pages_; }

  void set_writeback(WritebackFn fn) { writeback_ = std::move(fn); }

  // Returns the cached page data (page-sized, or shorter at EOF) and
  // refreshes LRU position; nullopt on miss.
  std::optional<blob::BlobRef> lookup(u64 file, u64 page_index);

  // Insert/replace a page. Evicts LRU pages as needed (dirty evictions call
  // the writeback function with `p`).
  void insert(sim::Process& p, u64 file, u64 page_index, blob::BlobRef data, bool dirty);

  // Mark a page clean after an explicit writeback of `written`. A page that
  // was re-dirtied while that writeback yielded holds newer data and stays
  // dirty.
  void mark_clean(u64 file, u64 page_index, const blob::BlobRef& written);

  // Write back every dirty page of `file` (all files if file == 0) in page
  // order, then mark clean. Returns number of pages written.
  u64 flush(sim::Process& p, u64 file = 0);

  // Drop all pages of a file (cache invalidation on close/reopen); dirty
  // pages are written back first. Pages re-dirtied during that writeback
  // stay resident and dirty.
  void invalidate_file(sim::Process& p, u64 file);

  // Drop a file's pages at or past byte `from` WITHOUT writeback, trimming
  // the page that straddles it (truncate semantics: staged data past the
  // truncation point must not be written back; staged data below it must).
  void discard_file(u64 file, u64 from = 0);

  // File keys that currently have dirty pages.
  [[nodiscard]] std::vector<u64> dirty_files() const;

  // Drop everything without writeback (unmount of a read-only session /
  // experiment reset to a cold state).
  void drop_all();

  // Sorted (page_index, data) list of dirty pages of `file` — used by the
  // NFS client to coalesce staged pages into wsize WRITE runs.
  [[nodiscard]] std::vector<std::pair<u64, blob::BlobRef>> dirty_pages_of(u64 file) const;

  // Peek without touching LRU order or stats.
  [[nodiscard]] bool contains(u64 file, u64 page_index) const {
    return find_(file, page_index) != kNil;
  }

  [[nodiscard]] u64 hits() const { return hits_.value(); }
  [[nodiscard]] u64 misses() const { return misses_.value(); }
  [[nodiscard]] u64 evictions() const { return evictions_.value(); }
  [[nodiscard]] u64 dirty_pages() const { return dirty_count_.value(); }
  [[nodiscard]] u64 resident_pages() const { return resident_; }

  void register_metrics(metrics::Registry& r, const std::string& prefix) const {
    r.register_counter(prefix + "hits", &hits_);
    r.register_counter(prefix + "misses", &misses_);
    r.register_counter(prefix + "evictions", &evictions_);
    r.register_gauge(prefix + "dirty_pages", &dirty_count_);
  }

 private:
  static constexpr u32 kNil = ~u32{0};

  // One slab slot. Live slots are threaded through prev/next into the LRU
  // list; free slots chain through `next` into the free list.
  struct Entry {
    u64 file = 0;
    u64 page = 0;
    blob::BlobRef data;
    u32 prev = kNil;  // towards the most recently used end
    u32 next = kNil;  // towards the least recently used end
    bool live = false;
    bool dirty = false;
  };

  [[nodiscard]] std::size_t home_(u64 file, u64 page) const {
    return static_cast<std::size_t>(hash_combine(file, page)) & (table_.size() - 1);
  }
  [[nodiscard]] u32 find_(u64 file, u64 page) const;
  // Takes a slot, links it at the LRU head and indexes it.
  void add_(u64 file, u64 page, blob::BlobRef data, bool dirty);
  // Unindexes and unlinks a live slot and returns it to the free list.
  void remove_(u32 slot);
  void unlink_(u32 slot);
  void push_front_(u32 slot);
  void touch_(u32 slot);
  void table_place_(u32 slot);
  void table_erase_(u32 slot);
  void grow_table_();
  // Evicts the LRU page. Returns true if it ran a writeback, which may have
  // yielded.
  bool evict_one_(sim::Process& p);

  u32 page_size_;
  u64 capacity_pages_;
  std::vector<Entry> slab_;
  // Power-of-two open-addressing table of slab indices (kNil = empty),
  // linear probing, at most 3/4 full.
  std::vector<u32> table_;
  u32 head_ = kNil;  // most recently used
  u32 tail_ = kNil;  // least recently used: the next victim
  u32 free_ = kNil;
  u64 resident_ = 0;
  WritebackFn writeback_;
  metrics::Counter hits_;
  metrics::Counter misses_;
  metrics::Counter evictions_;
  metrics::Gauge dirty_count_;
};

}  // namespace gvfs::vfs
