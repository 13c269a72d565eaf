// Second-level file-channel cache (§3.2.1 cascading, used by WAN-S3): a
// LAN-server proxy that implements RemoteFileEndpoint for the compute
// servers below it while itself fetching from the WAN image server above.
// The cache holds the *compressed* golden-image state, so downstream clones
// pay only a LAN-disk read plus the LAN hop — no per-clone recompression.
#pragma once

#include <memory>
#include <unordered_map>

#include "blob/blob.h"
#include "common/metrics.h"
#include "meta/file_channel.h"
#include "proxy/single_flight.h"
#include "sim/resources.h"
#include "ssh/ssh.h"

namespace gvfs::proxy {

class CachingFileEndpoint final : public meta::RemoteFileEndpoint {
 public:
  // Bound on the cached compressed images.
  static constexpr u64 kCapacityBytes = 8_GiB;

  // `upstream` + `scp_up` reach the origin server; `disk` stores cached
  // compressed images on this LAN server.
  CachingFileEndpoint(meta::RemoteFileEndpoint& upstream, ssh::Scp& scp_up,
                      sim::DiskModel& disk)
      : upstream_(upstream), scp_up_(scp_up), disk_(disk) {}

  Result<meta::CompressedImage> fetch_compressed(sim::Process& p,
                                                 vfs::FileId fileid) override;
  Status store_compressed(sim::Process& p, vfs::FileId fileid, blob::BlobRef content,
                          u64 compressed_size) override;

  // Content-addressed image dedup: after the origin compresses an image, its
  // fingerprint is compared against resident copies (the digest exchange is
  // a control-plane RPC already charged by fetch_compressed); an identical
  // image aliases the resident copy and skips the WAN crossing, the cache
  // disk write, and the residency charge — N clones of one golden image hold
  // one compressed copy.
  void set_dedup(bool on, u64 seed = blob::kDefaultFingerprintSeed) {
    dedup_ = on;
    dedup_seed_ = seed;
  }

  [[nodiscard]] u64 cache_hits() const { return hits_.value(); }
  [[nodiscard]] u64 cache_misses() const { return misses_.value(); }
  [[nodiscard]] u64 coalesced_fetches() const { return coalesced_.value(); }
  [[nodiscard]] u64 resident_bytes() const { return resident_.value(); }
  [[nodiscard]] u64 dedup_aliases() const { return dedup_aliases_.value(); }
  [[nodiscard]] u64 dedup_bytes_saved() const { return dedup_bytes_saved_.value(); }
  [[nodiscard]] u64 dedup_collisions() const { return dedup_collisions_.value(); }

  void register_metrics(metrics::Registry& r, const std::string& prefix) const {
    r.register_counter(prefix + "cache_hits", &hits_);
    r.register_counter(prefix + "cache_misses", &misses_);
    r.register_counter(prefix + "coalesced_fetches", &coalesced_);
    r.register_gauge(prefix + "resident_bytes", &resident_);
    if (dedup_) {
      r.register_counter(prefix + "dedup_aliases", &dedup_aliases_);
      r.register_counter(prefix + "dedup_bytes_saved", &dedup_bytes_saved_);
      r.register_counter(prefix + "dedup_collisions", &dedup_collisions_);
    }
  }
  [[nodiscard]] bool contains(vfs::FileId fileid) const {
    return images_.count(fileid) != 0;
  }
  void invalidate_all() {
    images_.clear();
    store_.clear();
    fp_of_.clear();
    resident_.set(0);
  }

  // Pre-warm the cache (WAN-S3 models images pulled by earlier clonings for
  // other compute servers on the same LAN).
  Status prefetch(sim::Process& p, vfs::FileId fileid) {
    return fetch_compressed(p, fileid).status();
  }

 private:
  // One deduplicated resident image; refs counts the fileids aliased onto
  // it. The entry owns the single residency charge — aliases add none.
  struct ImageDedupEntry {
    u64 size = 0;             // uncompressed content bytes (collision check)
    u64 compressed_size = 0;  // resident bytes this entry charges
    u32 refs = 0;
  };

  Status pull_(sim::Process& p, vfs::FileId fileid);
  // Accounting for removing `fileid`'s image: private copies release their
  // bytes; aliases drop a ref and release only at the last one.
  void drop_image_(vfs::FileId fileid, u64 compressed_size);

  meta::RemoteFileEndpoint& upstream_;
  ssh::Scp& scp_up_;
  sim::DiskModel& disk_;
  std::unordered_map<vfs::FileId, meta::CompressedImage> images_;
  bool dedup_ = false;
  u64 dedup_seed_ = blob::kDefaultFingerprintSeed;
  // Single-flight pull coalescing: concurrent downstream fetches of one
  // fileid join the first puller's WAN transfer instead of issuing duplicate
  // pulls — a boot storm of N clones missing the same golden image costs one
  // origin crossing, not N.
  SingleFlight<vfs::FileId, Status> pulls_;
  std::unordered_map<u64, ImageDedupEntry> store_;  // fingerprint -> entry
  std::unordered_map<vfs::FileId, u64> fp_of_;      // deduped fileids only
  metrics::Gauge resident_;  // compressed bytes on the cache disk
  metrics::Counter hits_;
  metrics::Counter misses_;
  metrics::Counter coalesced_;
  metrics::Counter dedup_aliases_;
  metrics::Counter dedup_bytes_saved_;
  metrics::Counter dedup_collisions_;
};

}  // namespace gvfs::proxy
