#include "proxy/caching_endpoint.h"

namespace gvfs::proxy {

void CachingFileEndpoint::drop_image_(vfs::FileId fileid, u64 compressed_size) {
  auto fit = fp_of_.find(fileid);
  if (fit != fp_of_.end()) {
    auto sit = store_.find(fit->second);
    if (sit != store_.end() && --sit->second.refs == 0) {
      resident_.sub(compressed_size);
      store_.erase(sit);
    }
    fp_of_.erase(fit);
    return;
  }
  resident_.sub(compressed_size);
}

Status CachingFileEndpoint::pull_(sim::Process& p, vfs::FileId fileid) {
  GVFS_ASSIGN_OR_RETURN(meta::CompressedImage img,
                        upstream_.fetch_compressed(p, fileid));
  u64 fp = 0;
  if (dedup_) {
    // rsync-style digest exchange: the origin's compress step already priced
    // the control round trip; an identical resident image means the bulk
    // bytes never cross the WAN and the cache disk never sees them.
    fp = img.content->fingerprint(dedup_seed_, 0, img.content->size());
    auto sit = store_.find(fp);
    if (sit != store_.end()) {
      if (sit->second.size == img.content->size() &&
          sit->second.compressed_size == img.compressed_size) {
        ++sit->second.refs;
        fp_of_[fileid] = fp;
        dedup_aliases_.inc();
        dedup_bytes_saved_.inc(img.compressed_size);
        images_[fileid] = std::move(img);
        return Status::ok();
      }
      // Same fingerprint, different content shape: never alias — pull a
      // private copy and pay full freight.
      dedup_collisions_.inc();
    }
  }
  // Compressed image crosses the WAN once, then lands on the LAN disk.
  scp_up_.transfer(p, img.compressed_size);
  disk_.access(p, img.compressed_size, sim::Locality::kSequential);
  while (resident_.value() + img.compressed_size > kCapacityBytes && !images_.empty()) {
    // Evict the smallest file id: unordered_map::begin() would pick a
    // hash-order (implementation-defined) victim, making eviction — and
    // every simulated timing downstream of it — non-reproducible.
    auto victim = images_.begin();  // gvfs-lint: allow(unordered-iteration) seed for the min-key scan
    // gvfs-lint: allow(unordered-iteration) commutative min-key scan; order cannot escape
    for (auto it = images_.begin(); it != images_.end(); ++it) {
      if (it->first < victim->first) victim = it;
    }
    drop_image_(victim->first, victim->second.compressed_size);
    images_.erase(victim);
  }
  resident_.add(img.compressed_size);
  if (dedup_) {
    // The transfer above yielded; a concurrent pull of identical content may
    // have claimed the fingerprint meanwhile. Losing that race keeps this
    // copy private — both transfers were already in flight, so both charge.
    auto [slot, inserted] = store_.try_emplace(
        fp, ImageDedupEntry{img.content->size(), img.compressed_size, 1});
    if (inserted) fp_of_[fileid] = fp;
  }
  images_[fileid] = std::move(img);
  return Status::ok();
}

Result<meta::CompressedImage> CachingFileEndpoint::fetch_compressed(
    sim::Process& p, vfs::FileId fileid) {
  auto it = images_.find(fileid);
  if (it != images_.end()) {
    hits_.inc();
  }
  while (it == images_.end()) {
    if (pulls_.in_flight(fileid)) {
      // Another downstream fetch is already pulling this image: join it.
      coalesced_.inc();
      GVFS_RETURN_IF_ERROR(pulls_.join(p, fileid, "l2-file-pull"));
      // Normally cached now; re-loop handles the pulled image having been
      // evicted again before this waiter was rescheduled.
      it = images_.find(fileid);
      continue;
    }
    misses_.inc();
    GVFS_RETURN_IF_ERROR(pulls_.lead(fileid, [&] { return pull_(p, fileid); }));
    it = images_.find(fileid);
  }
  // Stream the cached compressed image off the LAN disk; no recompression.
  // Copy the image out first: the disk access yields, and a concurrent
  // pull_() under capacity pressure can evict this very entry mid-stream,
  // leaving `it` dangling.
  meta::CompressedImage img = it->second;
  disk_.access(p, img.compressed_size, sim::Locality::kSequential);
  return img;
}

Status CachingFileEndpoint::store_compressed(sim::Process& p, vfs::FileId fileid,
                                             blob::BlobRef content,
                                             u64 compressed_size) {
  // Write-back from a compute server: keep the new compressed image here and
  // forward it to the origin (the LAN hop already happened downstream).
  disk_.access(p, compressed_size, sim::Locality::kSequential);
  meta::CompressedImage img;
  img.content = content;
  img.compressed_size = compressed_size;
  auto it = images_.find(fileid);
  if (it != images_.end()) {
    drop_image_(fileid, it->second.compressed_size);
  }
  // Write-back content is freshly dirtied: keep it private (the block-cache
  // CoW policy — dirty data never enters the dedup store).
  resident_.add(compressed_size);
  images_[fileid] = img;
  return upstream_.store_compressed(p, fileid, std::move(content), compressed_size);
}

}  // namespace gvfs::proxy
