// Proxy-managed disk cache (§3.2.1, TR-ACIS-04-001): the paper's central
// mechanism. Structured like a set-associative hardware cache: the disk
// holds "file banks" of fixed-size frames; a frame stores one NFS data block
// and its tag. The set index is derived from a hash of the file handle plus
// the block number, so consecutive blocks of a file land in consecutive sets
// of a bank (spatial locality on the cache disk). Supports write-back or
// write-through policies, middleware-driven flush/write-back signals,
// per-proxy sizing/associativity/block size (up to the 32 KB NFS limit), and
// read-only sharing between proxies.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "blob/blob.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/resources.h"

namespace gvfs::cache {

enum class WritePolicy { kWriteBack, kWriteThrough };

struct BlockCacheConfig {
  u64 capacity_bytes = 8_GiB;  // paper §4.1
  u64 block_size = 32_KiB;     // frame payload size (<= NFS limit)
  u32 num_banks = 512;         // paper §4.1
  u32 associativity = 16;      // paper §4.1
  WritePolicy policy = WritePolicy::kWriteBack;
  // Content-addressed dedup: clean blocks with identical bytes (by seeded
  // 64-bit fingerprint) share one resident payload across frames/files;
  // resident_bytes charges the shared copy once and a frame re-charges when
  // a write splits it private (copy-on-write). Default off: the cache is
  // byte-for-byte inert relative to the pre-dedup behavior.
  bool dedup_blocks = false;
  u64 dedup_seed = blob::kDefaultFingerprintSeed;
  // Test seam (like NfsServerConfig::drc_key_bits): the store is keyed on
  // the low `dedup_key_bits` of the fingerprint, but entries keep the full
  // fingerprint and verify it on every hit, so narrowing the key forces
  // collisions without ever aliasing different content.
  u32 dedup_key_bits = 64;
};

// Identifies a cached block: the owning file (by handle key) and the block
// index within it.
struct BlockId {
  u64 file_key = 0;
  u64 block = 0;
  bool operator==(const BlockId& o) const {
    return file_key == o.file_key && block == o.block;
  }
};

class ProxyDiskCache {
 public:
  // Evicted-dirty / write-through callback: push a block upstream.
  using WritebackFn = std::function<Status(sim::Process& p, const BlockId& id,
                                           const blob::BlobRef& data)>;

  ProxyDiskCache(sim::DiskModel& disk, BlockCacheConfig cfg);

  [[nodiscard]] const BlockCacheConfig& config() const { return cfg_; }

  void set_writeback(WritebackFn fn) { writeback_ = std::move(fn); }

  // Look up a block; on hit, charges a cache-disk read and returns the data.
  std::optional<blob::BlobRef> lookup(sim::Process& p, const BlockId& id);

  // Probe without timing or LRU side effects.
  [[nodiscard]] bool contains(const BlockId& id) const;

  // Content-addressed probe: the shared payload whose fingerprint is `fp`
  // (full 64 bits verified even under a narrowed dedup_key_bits) and whose
  // size is `size`, if an identical block is resident under any BlockId.
  // The caller aliases it via insert(); always empty when dedup is off.
  std::optional<blob::BlobRef> lookup_fingerprint(u64 fp, u64 size);

  // Insert (fetch fill or write): charges a cache-disk write; may evict
  // (dirty victims are written back upstream first). Under write-through,
  // dirty inserts are pushed upstream immediately and stored clean.
  Status insert(sim::Process& p, const BlockId& id, blob::BlobRef data, bool dirty);

  // Merge new bytes into a cached block at a byte range (partial-block
  // write). The block must be present; returns the merged block.
  Result<blob::BlobRef> merge(sim::Process& p, const BlockId& id, u64 offset_in_block,
                              const blob::BlobRef& data);

  // Middleware consistency signals (§3.2.1): write back all dirty blocks
  // (keeping them cached clean), or drop everything.
  Status write_back_all(sim::Process& p);
  // Write back only one file's dirty blocks (an O(file-resident) walk of the
  // per-file frame list; blocks stay cached clean).
  Status write_back_file(sim::Process& p, u64 file_key);
  void invalidate_all();  // drop without writeback (read-only session end)
  // Drop one file's blocks from `from_block` on, without writeback.
  void invalidate_file(u64 file_key, u64 from_block = 0);

  // ---- Observability -------------------------------------------------------
  [[nodiscard]] u64 hits() const { return hits_.value(); }
  [[nodiscard]] u64 misses() const { return misses_.value(); }
  [[nodiscard]] u64 evictions() const { return evictions_.value(); }
  [[nodiscard]] u64 writebacks() const { return writebacks_.value(); }
  [[nodiscard]] u64 dirty_blocks() const { return dirty_.value(); }
  [[nodiscard]] u64 resident_blocks() const { return resident_.value(); }
  [[nodiscard]] u64 resident_bytes() const { return resident_bytes_.value(); }
  // Number of resident blocks belonging to one file (O(1) map lookup +
  // O(file-resident) walk; used by tests and observability).
  [[nodiscard]] u64 file_resident_blocks(u64 file_key) const;
  // Dirty blocks of one file (same walk).
  [[nodiscard]] u64 file_dirty_blocks(u64 file_key) const;
  [[nodiscard]] u64 banks_created() const { return banks_created_.value(); }
  [[nodiscard]] u64 dedup_hits() const { return dedup_hits_.value(); }
  [[nodiscard]] u64 dedup_aliases() const { return dedup_aliases_.value(); }
  [[nodiscard]] u64 dedup_bytes_saved() const { return dedup_bytes_saved_.value(); }
  [[nodiscard]] u64 dedup_collisions() const { return dedup_collisions_.value(); }
  [[nodiscard]] u64 dedup_entries() const { return dedup_.size(); }
  [[nodiscard]] u32 sets() const { return num_sets_; }
  void reset_stats() {
    hits_.reset();
    misses_.reset();
    evictions_.reset();
    writebacks_.reset();
  }

  void register_metrics(metrics::Registry& r, const std::string& prefix) const {
    r.register_counter(prefix + "hits", &hits_);
    r.register_counter(prefix + "misses", &misses_);
    r.register_counter(prefix + "evictions", &evictions_);
    r.register_counter(prefix + "writebacks", &writebacks_);
    r.register_counter(prefix + "banks_created", &banks_created_);
    r.register_gauge(prefix + "dirty_blocks", &dirty_);
    r.register_gauge(prefix + "resident_blocks", &resident_);
    r.register_gauge(prefix + "resident_bytes", &resident_bytes_);
    if (cfg_.dedup_blocks) {
      r.register_counter(prefix + "dedup_hits", &dedup_hits_);
      r.register_counter(prefix + "dedup_aliases", &dedup_aliases_);
      r.register_counter(prefix + "dedup_bytes_saved", &dedup_bytes_saved_);
      r.register_counter(prefix + "dedup_collisions", &dedup_collisions_);
    }
  }

 private:
  static constexpr u32 kNil = 0xffffffffu;

  struct Frame {
    bool valid = false;
    bool dirty = false;
    // Claimed by an in-flight insert whose eviction / frame write is blocked
    // on the cache disk: victim scans and concurrent inserts skip it.
    bool busy = false;
    BlockId id;
    blob::BlobRef data;
    // Dedup state: `shared` frames hold a payload owned by the dedup store
    // (accounted once across all aliases); `fp` is its full fingerprint.
    // Assign payloads only through set_frame_data_/release_frame_data_ —
    // a direct `data =` desynchronizes the store's refcounts (enforced by
    // the frame-data-mutation lint rule).
    bool shared = false;
    u64 fp = 0;
    u64 last_used = 0;
    // Intrusive doubly-linked list of all resident frames of one file,
    // threaded through file_head_. Makes invalidate_file O(file-resident)
    // instead of O(capacity).
    u32 file_prev = kNil;
    u32 file_next = kNil;
  };

  // Frame storage is chunked and lazily materialized: at the paper's 8 GiB
  // geometry the full set-major array is 262,144 frames (~20 MB), which a
  // 1,000-node testbed cannot afford eagerly. Chunks are sized to a whole
  // number of sets so one set never straddles two chunks; a set whose chunk
  // was never touched holds no valid frames by definition, so lookups in it
  // are misses without allocating anything.
  static constexpr u32 kTargetFramesPerChunk = 4096;

  [[nodiscard]] u32 set_index_(const BlockId& id) const;
  // Ways of `set`, or nullptr if its chunk was never materialized.
  [[nodiscard]] const Frame* set_base_(u32 set) const;
  Frame* set_base_(u32 set);
  // Ways of `set`, materializing the chunk on first touch.
  Frame* set_base_create_(u32 set);
  // Frame by global index; the chunk must already exist (the index came
  // from a live per-file list or an occupied set).
  [[nodiscard]] const Frame& frame_at_(u32 idx) const {
    return chunks_[idx / frames_per_chunk_][idx % frames_per_chunk_];
  }
  Frame& frame_at_(u32 idx) {
    return chunks_[idx / frames_per_chunk_][idx % frames_per_chunk_];
  }
  [[nodiscard]] const Frame* find_(const BlockId& id) const;
  Frame* find_(const BlockId& id);
  Status evict_(sim::Process& p, Frame& victim, u32 idx);
  // Write back the blocks of `ids` still dirty, in order. Each block is
  // looked up before and after its yield; a frame rewritten meanwhile stays
  // dirty.
  Status write_back_blocks_(sim::Process& p, const std::vector<BlockId>& ids);
  void touch_bank_(sim::Process& p, u32 set);
  void link_file_(u32 idx);
  void unlink_file_(u32 idx);
  void clear_frame_(Frame& f);
  // The only sanctioned frame-payload assignment sites: they keep the dedup
  // store's refcounts and the resident_bytes gauge consistent (an aliased
  // payload is charged once; a copy-on-write split re-charges the frame).
  // `try_dedup` is false for dirty data — written bytes diverge from any
  // shared copy, so the frame splits private.
  void set_frame_data_(Frame& f, blob::BlobRef data, bool try_dedup);
  void release_frame_data_(Frame& f);
  // Debug invariant (GVFS_YIELD_CHECK builds): recompute resident_bytes and
  // per-entry refcounts from the frames and compare with the gauge/store.
  void verify_dedup_accounting_() const;

  sim::DiskModel& disk_;
  BlockCacheConfig cfg_;
  u32 num_sets_;        // total sets across all banks
  u32 sets_per_bank_;
  u32 frames_per_chunk_;  // multiple of associativity
  u64 total_frames_;
  std::vector<std::unique_ptr<Frame[]>> chunks_;  // set-major, lazy
  std::vector<bool> bank_exists_;
  // file_key -> index of the first resident frame of that file.
  std::unordered_map<u64, u32> file_head_;
  // Content-addressed store: masked fingerprint -> one shared payload plus
  // the number of frames aliasing it. Entries keep the full fingerprint and
  // size, verified on every probe, so a masked-key collision is a counted
  // miss rather than silent content aliasing.
  struct DedupEntry {
    u64 fp = 0;
    blob::BlobRef data;
    u32 refs = 0;
  };
  std::unordered_map<u64, DedupEntry> dedup_;
  u64 dedup_mask_ = ~0ULL;
  WritebackFn writeback_;
  u64 tick_ = 0;
  // Bumped by invalidate_all(), which frees the chunk storage. Fibers that
  // captured frame pointers before a disk / write-back yield compare epochs
  // afterwards and restart (or abort) instead of touching freed frames.
  u64 structure_epoch_ = 0;
  metrics::Counter hits_;
  metrics::Counter misses_;
  metrics::Counter evictions_;
  metrics::Counter writebacks_;
  metrics::Gauge dirty_;
  metrics::Gauge resident_;
  metrics::Gauge resident_bytes_;
  metrics::Counter banks_created_;
  metrics::Counter dedup_hits_;
  metrics::Counter dedup_aliases_;
  metrics::Counter dedup_bytes_saved_;
  metrics::Counter dedup_collisions_;
  BlockId last_access_{};  // sequentiality heuristic for cache-disk locality
};

}  // namespace gvfs::cache
