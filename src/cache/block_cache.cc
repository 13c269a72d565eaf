#include "cache/block_cache.h"

#include <algorithm>
#include <cassert>

#include "blob/extent_store.h"
#include "common/log.h"

namespace gvfs::cache {

ProxyDiskCache::ProxyDiskCache(sim::DiskModel& disk, BlockCacheConfig cfg)
    : disk_(disk), cfg_(cfg) {
  u64 total_frames = std::max<u64>(cfg_.associativity,
                                   cfg_.capacity_bytes / cfg_.block_size);
  num_sets_ = static_cast<u32>(std::max<u64>(1, total_frames / cfg_.associativity));
  sets_per_bank_ = std::max<u32>(1, num_sets_ / std::max<u32>(1, cfg_.num_banks));
  total_frames_ = static_cast<u64>(num_sets_) * cfg_.associativity;
  frames_per_chunk_ =
      std::max<u32>(1, kTargetFramesPerChunk / cfg_.associativity) *
      cfg_.associativity;
  chunks_.resize(static_cast<std::size_t>(
      (total_frames_ + frames_per_chunk_ - 1) / frames_per_chunk_));
  bank_exists_.resize(cfg_.num_banks + 1, false);
  cfg_.dedup_key_bits = std::clamp<u32>(cfg_.dedup_key_bits, 1, 64);
  dedup_mask_ = cfg_.dedup_key_bits >= 64
                    ? ~0ULL
                    : ((1ULL << cfg_.dedup_key_bits) - 1);
}

const ProxyDiskCache::Frame* ProxyDiskCache::set_base_(u32 set) const {
  std::size_t idx = static_cast<std::size_t>(set) * cfg_.associativity;
  const auto& chunk = chunks_[idx / frames_per_chunk_];
  return chunk ? &chunk[idx % frames_per_chunk_] : nullptr;
}

ProxyDiskCache::Frame* ProxyDiskCache::set_base_(u32 set) {
  std::size_t idx = static_cast<std::size_t>(set) * cfg_.associativity;
  auto& chunk = chunks_[idx / frames_per_chunk_];
  return chunk ? &chunk[idx % frames_per_chunk_] : nullptr;
}

ProxyDiskCache::Frame* ProxyDiskCache::set_base_create_(u32 set) {
  std::size_t idx = static_cast<std::size_t>(set) * cfg_.associativity;
  auto& chunk = chunks_[idx / frames_per_chunk_];
  if (!chunk) chunk = std::make_unique<Frame[]>(frames_per_chunk_);
  return &chunk[idx % frames_per_chunk_];
}

u32 ProxyDiskCache::set_index_(const BlockId& id) const {
  // Consecutive blocks of one file map to consecutive sets (spatial
  // locality within a bank), different files start at hashed origins.
  return static_cast<u32>((mix64(id.file_key) + id.block) % num_sets_);
}

const ProxyDiskCache::Frame* ProxyDiskCache::find_(const BlockId& id) const {
  const Frame* base = set_base_(set_index_(id));
  if (base == nullptr) return nullptr;
  for (u32 w = 0; w < cfg_.associativity; ++w) {
    if (base[w].valid && base[w].id == id) return &base[w];
  }
  return nullptr;
}

ProxyDiskCache::Frame* ProxyDiskCache::find_(const BlockId& id) {
  Frame* base = set_base_(set_index_(id));
  if (base == nullptr) return nullptr;
  for (u32 w = 0; w < cfg_.associativity; ++w) {
    if (base[w].valid && base[w].id == id) return &base[w];
  }
  return nullptr;
}

bool ProxyDiskCache::contains(const BlockId& id) const {
  return find_(id) != nullptr;
}

std::optional<blob::BlobRef> ProxyDiskCache::lookup_fingerprint(u64 fp, u64 size) {
  if (!cfg_.dedup_blocks) return std::nullopt;
  auto it = dedup_.find(fp & dedup_mask_);
  if (it == dedup_.end()) return std::nullopt;
  // The store key may be narrowed (dedup_key_bits test seam); the full
  // fingerprint and the size gate every hit so a key collision can only
  // cost a fetch, never serve wrong bytes.
  if (it->second.fp != fp || it->second.data->size() != size) {
    dedup_collisions_.inc();
    return std::nullopt;
  }
  dedup_hits_.inc();
  return it->second.data;
}

void ProxyDiskCache::link_file_(u32 idx) {
  Frame& f = frame_at_(idx);
  f.file_prev = kNil;
  auto [it, fresh] = file_head_.try_emplace(f.id.file_key, idx);
  if (fresh) {
    f.file_next = kNil;
  } else {
    f.file_next = it->second;
    frame_at_(it->second).file_prev = idx;
    it->second = idx;
  }
}

void ProxyDiskCache::unlink_file_(u32 idx) {
  Frame& f = frame_at_(idx);
  if (f.file_next != kNil) frame_at_(f.file_next).file_prev = f.file_prev;
  if (f.file_prev != kNil) {
    frame_at_(f.file_prev).file_next = f.file_next;
  } else {
    // Head of its file's list.
    auto it = file_head_.find(f.id.file_key);
    if (f.file_next != kNil) {
      it->second = f.file_next;
    } else {
      file_head_.erase(it);
    }
  }
  f.file_prev = kNil;
  f.file_next = kNil;
}

void ProxyDiskCache::clear_frame_(Frame& f) {
  release_frame_data_(f);
  f.valid = false;
  f.dirty = false;
}

void ProxyDiskCache::release_frame_data_(Frame& f) {
  if (f.data) {
    if (f.shared) {
      // Aliased payload: the store charged it once; only the last alias
      // releases the bytes.
      auto it = dedup_.find(f.fp & dedup_mask_);
      assert(it != dedup_.end() && it->second.refs > 0);
      if (it != dedup_.end() && --it->second.refs == 0) {
        resident_bytes_.sub(it->second.data->size());
        dedup_.erase(it);
      }
    } else {
      resident_bytes_.sub(f.data->size());
    }
  }
  // gvfs-lint: allow(frame-data-mutation) this is the sanctioned release helper
  f.data.reset();
  f.shared = false;
  f.fp = 0;
}

void ProxyDiskCache::set_frame_data_(Frame& f, blob::BlobRef data, bool try_dedup) {
  assert(!f.data);  // callers release first (CoW split point)
  if (cfg_.dedup_blocks && try_dedup && data) {
    u64 fp = data->fingerprint(cfg_.dedup_seed, 0, data->size());
    auto [it, fresh] = dedup_.try_emplace(fp & dedup_mask_);
    DedupEntry& e = it->second;
    if (fresh) {
      e.fp = fp;
      // gvfs-lint: allow(frame-data-mutation) store entry init inside the helper
      e.data = data;
      e.refs = 1;
      resident_bytes_.add(data->size());
    } else if (e.fp == fp && e.data->size() == data->size()) {
      // Identical content already resident: alias the shared copy, charge
      // nothing.
      ++e.refs;
      dedup_aliases_.inc();
      dedup_bytes_saved_.inc(data->size());
      data = e.data;
    } else {
      // Masked-key collision with different content: never alias; the frame
      // stays private and the store entry keeps its original owner.
      dedup_collisions_.inc();
      resident_bytes_.add(data->size());
      // gvfs-lint: allow(frame-data-mutation) sanctioned assign inside the helper
      f.data = std::move(data);
      f.shared = false;
      f.fp = 0;
      return;
    }
    // gvfs-lint: allow(frame-data-mutation) sanctioned assign inside the helper
    f.data = std::move(data);
    f.shared = true;
    f.fp = fp;
    return;
  }
  if (data) resident_bytes_.add(data->size());
  // gvfs-lint: allow(frame-data-mutation) sanctioned assign inside the helper
  f.data = std::move(data);
  f.shared = false;
  f.fp = 0;
}

void ProxyDiskCache::verify_dedup_accounting_() const {
#ifdef GVFS_YIELD_CHECK
  if (!cfg_.dedup_blocks) return;
  // Recompute what the gauge and the store must hold from the frames alone:
  // every dedup entry's payload counts once, every private frame's payload
  // counts per frame, and an entry's refcount equals its aliasing frames.
  u64 expect_bytes = 0;
  std::unordered_map<u64, u32> refs;
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    if (!chunks_[c]) continue;
    const std::size_t n = std::min<std::size_t>(
        frames_per_chunk_, total_frames_ - c * frames_per_chunk_);
    for (std::size_t i = 0; i < n; ++i) {
      const Frame& f = chunks_[c][i];
      if (!f.valid || !f.data) continue;
      if (f.shared) {
        ++refs[f.fp & dedup_mask_];
      } else {
        expect_bytes += f.data->size();
      }
    }
  }
  assert(refs.size() == dedup_.size());
  // gvfs-lint: allow(unordered-iteration) debug-only invariant; nothing escapes
  for (const auto& [key, e] : dedup_) {
    auto it = refs.find(key);
    assert(it != refs.end() && it->second == e.refs);
    (void)it;
    expect_bytes += e.data->size();
  }
  assert(expect_bytes == resident_bytes_.value());
  (void)expect_bytes;
#endif
}

void ProxyDiskCache::touch_bank_(sim::Process& p, u32 set) {
  u32 bank = std::min<u32>(set / sets_per_bank_, cfg_.num_banks - 1);
  if (!bank_exists_[bank]) {
    bank_exists_[bank] = true;
    banks_created_.inc();
    // Creating the bank file on first touch: one metadata journal write.
    disk_.access(p, 4_KiB, sim::Locality::kSequential);
  }
}

std::optional<blob::BlobRef> ProxyDiskCache::lookup(sim::Process& p, const BlockId& id) {
  Frame* f = find_(id);
  if (f == nullptr) {
    misses_.inc();
    return std::nullopt;
  }
  hits_.inc();
  f->last_used = ++tick_;
  // Copy the payload handle out before the cache-disk yield: a concurrent
  // insert can evict this frame — or invalidate_all() free its chunk —
  // while this fiber is blocked on the disk.
  blob::BlobRef data = f->data;
  // A hit reads the frame from the cache disk. Consecutive blocks of a file
  // live in consecutive sets of a bank, so sequential access streams.
  sim::Locality loc = (id.file_key == last_access_.file_key &&
                       id.block == last_access_.block + 1)
                          ? sim::Locality::kSequential
                          : sim::Locality::kRandom;
  last_access_ = id;
  disk_.access(p, data ? data->size() : cfg_.block_size, loc);
  return data;
}

Status ProxyDiskCache::evict_(sim::Process& p, Frame& victim, u32 idx) {
  if (!victim.valid) return Status::ok();
  evictions_.inc();
  u64 epoch = structure_epoch_;
  if (victim.dirty) {
    writebacks_.inc();
    dirty_.sub(1);
    // Clear the dirty bit before yielding so a concurrent write_back walk
    // does not flush (and double-decrement) the same frame.
    victim.dirty = false;
    if (writeback_) {
      // Copy the tag and payload handle: the write-back yields, and only the
      // caller's busy claim — not these fields — survives a concurrent
      // invalidate of the frame.
      BlockId id = victim.id;
      blob::BlobRef data = victim.data;
      // Read the frame back from the cache disk, then push upstream.
      disk_.access(p, data ? data->size() : cfg_.block_size,
                   sim::Locality::kRandom);
      Status st = writeback_(p, id, data);
      if (structure_epoch_ != epoch) return st;  // chunks freed under us
      if (!st.is_ok()) {
        if (victim.valid) {
          victim.dirty = true;
          dirty_.add(1);
        }
        return st;
      }
    }
  }
  if (!victim.valid) return Status::ok();  // invalidated during the yield
  unlink_file_(idx);
  clear_frame_(victim);
  resident_.sub(1);
  return Status::ok();
}

Status ProxyDiskCache::insert(sim::Process& p, const BlockId& id, blob::BlobRef data,
                              bool dirty) {
  assert(data && data->size() <= cfg_.block_size);
  if (cfg_.policy == WritePolicy::kWriteThrough && dirty) {
    if (writeback_) {
      writebacks_.inc();
      GVFS_RETURN_IF_ERROR(writeback_(p, id, data));
    }
    dirty = false;
  }

  u32 set = set_index_(id);
  touch_bank_(p, set);
  const u32 set_first = set * cfg_.associativity;

  // If the block cannot be cached right now (every way claimed by concurrent
  // inserts, or the cache was invalidated mid-insert), dirty bytes go
  // straight upstream so nothing is lost; clean bytes are simply not cached.
  auto skip_cache = [&]() -> Status {
    if (dirty && writeback_) {
      writebacks_.inc();
      return writeback_(p, id, data);
    }
    return Status::ok();
  };

  // Claim one frame (busy) before the eviction / frame-write yields below: a
  // concurrent insert into the same set must not pick the same LRU victim,
  // and invalidate_all() freeing the chunks mid-yield is detected by the
  // structure epoch and restarts the claim.
  for (;;) {
    u64 epoch = structure_epoch_;
    Frame* base = set_base_create_(set);
    Frame* slot = nullptr;
    u32 way = 0;
    for (u32 w = 0; w < cfg_.associativity; ++w) {
      if (base[w].valid && base[w].id == id) {
        slot = &base[w];
        way = w;
        break;
      }
    }
    bool new_residency = false;
    if (slot != nullptr && slot->busy) {
      // This very block's frame is mid-eviction in another fiber.
      return skip_cache();
    }
    if (slot == nullptr) {
      // Free way, else LRU victim; never a frame another insert claimed.
      for (u32 w = 0; w < cfg_.associativity; ++w) {
        if (!base[w].valid && !base[w].busy) {
          slot = &base[w];
          way = w;
          break;
        }
      }
      if (slot == nullptr) {
        for (u32 w = 0; w < cfg_.associativity; ++w) {
          if (base[w].busy) continue;
          if (slot == nullptr || base[w].last_used < slot->last_used) {
            slot = &base[w];
            way = w;
          }
        }
      }
      if (slot == nullptr) return skip_cache();
      slot->busy = true;
      if (slot->valid) {
        Status st = evict_(p, *slot, set_first + way);
        if (structure_epoch_ != epoch) {
          // invalidate_all() dropped the chunks while the eviction write-back
          // was in flight; release the claim through re-derived storage.
          if (Frame* nb = set_base_(set)) nb[way].busy = false;
          GVFS_RETURN_IF_ERROR(st);
          continue;  // re-derive and re-claim
        }
        if (!st.is_ok()) {
          slot->busy = false;
          return st;
        }
      }
      resident_.add(1);
      new_residency = true;
    } else {
      slot->busy = true;
      if (slot->dirty && !dirty) {
        // Overwriting a dirty frame with clean data must not lose staged
        // bytes — the caller (proxy) merges before inserting, so a clean
        // overwrite means the block was just written back. A dirty overwrite
        // keeps the frame dirty and its single dirty count.
        dirty_.sub(1);
        slot->dirty = false;
      }
    }

    // Frame write to the cache disk. Bank-file writes go through the host
    // buffer cache and are flushed in elevator order, so they cost
    // near-sequential time regardless of arrival order.
    last_access_ = id;
    disk_.access(p, data->size(), sim::Locality::kSequential);
    if (structure_epoch_ != epoch) {
      // The cache was dropped while the frame write was in flight. The
      // invalidate already reset the gauges; just release the claim and
      // treat the block as uncacheable.
      if (Frame* nb = set_base_(set)) nb[way].busy = false;
      return skip_cache();
    }
    if (!new_residency && !slot->valid) {
      // invalidate_file() cleared the matched frame during the yield;
      // filling it now would leave an unlinked resident frame.
      slot->busy = false;
      return skip_cache();
    }

    release_frame_data_(*slot);
    // Dirty data never enters the dedup store: written bytes diverge from
    // the shared copy (copy-on-write split); clean fills may alias.
    set_frame_data_(*slot, std::move(data), !dirty);
    slot->valid = true;
    slot->id = id;
    slot->last_used = ++tick_;
    slot->busy = false;
    if (new_residency) link_file_(set_first + way);
    if (dirty && !slot->dirty) {
      slot->dirty = true;
      dirty_.add(1);
    }
    verify_dedup_accounting_();
    return Status::ok();
  }
}

Result<blob::BlobRef> ProxyDiskCache::merge(sim::Process& p, const BlockId& id,
                                            u64 offset_in_block,
                                            const blob::BlobRef& data) {
  Frame* f = find_(id);
  if (f == nullptr) return err(ErrCode::kNoEnt, "merge on absent block");
  blob::ExtentStore compose;
  if (f->data) compose.write_blob(0, f->data, 0, f->data->size());
  if (data && data->size() > 0) {
    compose.write_blob(offset_in_block, data, 0, data->size());
  }
  blob::BlobRef merged = compose.snapshot();
  // Copy-on-write split: a shared frame being written releases its alias
  // (last ref frees the store entry) and re-charges its private copy.
  release_frame_data_(*f);
  set_frame_data_(*f, merged, /*try_dedup=*/false);
  f->last_used = ++tick_;
  if (!f->dirty) {
    f->dirty = true;
    dirty_.add(1);
  }
  disk_.access(p, data ? data->size() : 4_KiB, sim::Locality::kRandom);
  verify_dedup_accounting_();
  return merged;
}

Status ProxyDiskCache::write_back_all(sim::Process& p) {
  std::vector<BlockId> ids;
  ids.reserve(dirty_.value());
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    if (!chunks_[c]) continue;
    const std::size_t n = std::min<std::size_t>(
        frames_per_chunk_, total_frames_ - c * frames_per_chunk_);
    for (std::size_t i = 0; i < n; ++i) {
      const Frame& f = chunks_[c][i];
      if (f.valid && f.dirty) ids.push_back(f.id);
    }
  }
  return write_back_blocks_(p, ids);
}

Status ProxyDiskCache::write_back_file(sim::Process& p, u64 file_key) {
  auto it = file_head_.find(file_key);
  if (it == file_head_.end()) return Status::ok();
  std::vector<BlockId> ids;
  for (u32 idx = it->second; idx != kNil; idx = frame_at_(idx).file_next) {
    if (frame_at_(idx).dirty) ids.push_back(frame_at_(idx).id);
  }
  return write_back_blocks_(p, ids);
}

Status ProxyDiskCache::write_back_blocks_(sim::Process& p, const std::vector<BlockId>& ids) {
  for (const BlockId& id : ids) {
    Frame* f = find_(id);
    if (f == nullptr || !f->dirty) continue;  // evicted or cleaned meanwhile
    writebacks_.inc();
    if (!writeback_) {
      f->dirty = false;
      dirty_.sub(1);
      continue;
    }
    // Copy the payload handle before yielding: a concurrent insert or
    // invalidate can evict or clear this frame mid-flush.
    const blob::BlobRef data = f->data;
    disk_.access(p, data ? data->size() : cfg_.block_size, sim::Locality::kSequential);
    GVFS_RETURN_IF_ERROR(writeback_(p, id, data));
    // Only clear the dirty bit if the frame still holds the bytes just
    // written back: a write landing during the yield keeps it dirty.
    Frame* g = find_(id);
    if (g != nullptr && g->dirty && g->data == data) {
      g->dirty = false;
      dirty_.sub(1);
    }
  }
  return Status::ok();
}

void ProxyDiskCache::invalidate_all() {
  // Drop whole chunks: releasing the storage also returns the testbed to
  // its pre-warm footprint after a read-only session ends. Fibers blocked in
  // a yield with frame pointers in hand see the epoch bump and restart.
  ++structure_epoch_;
  for (auto& chunk : chunks_) chunk.reset();
  file_head_.clear();
  dedup_.clear();
  dirty_.set(0);
  resident_.set(0);
  resident_bytes_.set(0);
}

void ProxyDiskCache::invalidate_file(u64 file_key, u64 from_block) {
  auto it = file_head_.find(file_key);
  if (it == file_head_.end()) return;
  for (u32 idx = it->second; idx != kNil;) {
    Frame& f = frame_at_(idx);
    u32 next = f.file_next;
    if (f.id.block >= from_block) {
      if (f.dirty) dirty_.sub(1);
      unlink_file_(idx);
      clear_frame_(f);
      resident_.sub(1);
    }
    idx = next;
  }
}

u64 ProxyDiskCache::file_resident_blocks(u64 file_key) const {
  auto it = file_head_.find(file_key);
  if (it == file_head_.end()) return 0;
  u64 n = 0;
  for (u32 idx = it->second; idx != kNil; idx = frame_at_(idx).file_next) ++n;
  return n;
}

u64 ProxyDiskCache::file_dirty_blocks(u64 file_key) const {
  auto it = file_head_.find(file_key);
  if (it == file_head_.end()) return 0;
  u64 n = 0;
  for (u32 idx = it->second; idx != kNil; idx = frame_at_(idx).file_next) {
    if (frame_at_(idx).dirty) ++n;
  }
  return n;
}

}  // namespace gvfs::cache
