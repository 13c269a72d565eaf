#include "vm/guest_fs.h"

#include <algorithm>
#include <numeric>


namespace gvfs::vm {

namespace {
constexpr u64 kAlign = 4_KiB;
u64 align_up(u64 v) { return (v + kAlign - 1) & ~(kAlign - 1); }

u64 gcd_(u64 a, u64 b) { return b == 0 ? a : gcd_(b, a % b); }

constexpr u64 kFragExtent = 8_KiB;  // extent size for fragmented files
}  // namespace

GuestFs::GuestFs(VmMonitor& vm, u64 data_base, u64 data_limit) : vm_(vm) {
  // Split the data region: lower half for contiguous allocations, upper half
  // for the fragment slot area.
  u64 span = data_limit - data_base;
  contig_next_ = data_base;
  frag_base_ = data_base + span / 2;
  frag_slots_ = std::max<u64>(1, (data_limit - frag_base_) / kFragExtent);
  // A fixed odd stride, bumped until coprime with the slot count, makes
  // slot_offset_ a bijection that scatters consecutive slots.
  stride_ = 2654435761u % frag_slots_;
  if (stride_ == 0) stride_ = 1;
  while (gcd_(stride_, frag_slots_) != 1) ++stride_;
}

u64 GuestFs::slot_offset_(u64 slot_index) const {
  u64 slot = (slot_index * stride_) % frag_slots_;
  return frag_base_ + slot * kFragExtent;
}

Status GuestFs::add_file(const std::string& name, u64 initial_size, u64 reserve,
                         bool fragmented) {
  if (files_.count(name) != 0) return err(ErrCode::kExist, name);
  GFile f;
  f.size = initial_size;
  f.fragmented = fragmented;
  if (fragmented) {
    u64 extents = (std::max<u64>(initial_size, 1) + kFragExtent - 1) / kFragExtent;
    if (frag_next_slot_ + extents > frag_slots_) {
      return err(ErrCode::kNoSpc, "fragment area full");
    }
    f.first_slot = frag_next_slot_;
    f.extents = extents;
    frag_next_slot_ += extents;
  } else {
    if (reserve == 0) reserve = std::max<u64>(initial_size * 2, 64_KiB);
    reserve = align_up(std::max(reserve, initial_size));
    if (contig_next_ + reserve > frag_base_) return err(ErrCode::kNoSpc, "guest disk full");
    f.disk_off = contig_next_;
    f.capacity = reserve;
    contig_next_ += reserve;
  }
  files_[name] = f;
  return Status::ok();
}

u64 GuestFs::size(const std::string& name) const {
  auto it = files_.find(name);
  return it == files_.end() ? 0 : it->second.size;
}

Status GuestFs::ensure_extents_(GFile& f, u64 needed_bytes) {
  u64 needed = (needed_bytes + kFragExtent - 1) / kFragExtent;
  if (needed <= f.extents) return Status::ok();
  // Growth must continue the file's slot sequence; that only works for the
  // most recently allocated file. Otherwise allocate a fresh run and migrate
  // the slot window (contents live on disk at hashed slots, so "migration"
  // just re-bases the index sequence — old slots leak, like real
  // fragmentation).
  if (f.first_slot + f.extents != frag_next_slot_) {
    if (frag_next_slot_ + needed > frag_slots_) return err(ErrCode::kNoSpc);
    // Note: data in old extents would need copying in a real FS; the guest
    // cache holds recent writes, so charge nothing extra here — files that
    // grow a lot should be contiguous-mode anyway.
    f.first_slot = frag_next_slot_;
    frag_next_slot_ += needed;
    f.extents = needed;
    return Status::ok();
  }
  u64 extra = needed - f.extents;
  if (frag_next_slot_ + extra > frag_slots_) return err(ErrCode::kNoSpc);
  frag_next_slot_ += extra;
  f.extents = needed;
  return Status::ok();
}

Result<blob::BlobRef> GuestFs::frag_read_(sim::Process& p, const GFile& f, u64 offset,
                                          u64 len) {
  std::vector<blob::Piece> out;
  u64 pos = 0;
  while (pos < len) {
    u64 abs = offset + pos;
    u64 ext = abs / kFragExtent;
    u64 within = abs % kFragExtent;
    u64 n = std::min<u64>(kFragExtent - within, len - pos);
    GVFS_ASSIGN_OR_RETURN(
        blob::BlobRef piece,
        vm_.disk_read(p, slot_offset_(f.first_slot + ext) + within, n));
    u64 got = std::min<u64>(n, piece->size());
    if (got > 0) out.push_back({pos, got, std::move(piece), 0});
    pos += n;
  }
  return blob::make_pieces(std::move(out), len);
}

Status GuestFs::frag_write_(sim::Process& p, GFile& f, u64 offset,
                            const blob::BlobRef& data) {
  u64 len = data->size();
  GVFS_RETURN_IF_ERROR(ensure_extents_(f, offset + len));
  u64 pos = 0;
  while (pos < len) {
    u64 abs = offset + pos;
    u64 ext = abs / kFragExtent;
    u64 within = abs % kFragExtent;
    u64 n = std::min<u64>(kFragExtent - within, len - pos);
    auto slice = std::make_shared<blob::SliceBlob>(data, pos, n);
    GVFS_RETURN_IF_ERROR(
        vm_.disk_write(p, slot_offset_(f.first_slot + ext) + within, slice));
    pos += n;
  }
  return Status::ok();
}

Result<blob::BlobRef> GuestFs::read(sim::Process& p, const std::string& name,
                                    u64 offset, u64 len) {
  auto it = files_.find(name);
  if (it == files_.end()) return err(ErrCode::kNoEnt, name);
  const GFile& f = it->second;
  if (offset >= f.size || len == 0) return blob::BlobRef(blob::make_zero(0));
  len = std::min<u64>(len, f.size - offset);
  if (f.fragmented) return frag_read_(p, f, offset, len);
  return vm_.disk_read(p, f.disk_off + offset, len);
}

Result<blob::BlobRef> GuestFs::read_all(sim::Process& p, const std::string& name) {
  return read(p, name, 0, size(name));
}

Status GuestFs::write(sim::Process& p, const std::string& name, u64 offset,
                      const blob::BlobRef& data) {
  auto it = files_.find(name);
  if (it == files_.end()) return err(ErrCode::kNoEnt, name);
  GFile& f = it->second;
  u64 len = data ? data->size() : 0;
  if (len == 0) return Status::ok();
  if (f.fragmented) {
    GVFS_RETURN_IF_ERROR(frag_write_(p, f, offset, data));
    f.size = std::max(f.size, offset + len);
    return Status::ok();
  }
  if (offset + len > f.capacity) {
    // Out-grew the reserve: relocate to a fresh extent (ext2 would fragment;
    // relocation keeps the model simple and charges the copy honestly).
    u64 new_cap = align_up(std::max((offset + len) * 2, f.capacity * 2));
    if (contig_next_ + new_cap > frag_base_) return err(ErrCode::kNoSpc, "guest disk full");
    if (f.size > 0) {
      GVFS_ASSIGN_OR_RETURN(blob::BlobRef old, vm_.disk_read(p, f.disk_off, f.size));
      GVFS_RETURN_IF_ERROR(vm_.disk_write(p, contig_next_, old));
    }
    f.disk_off = contig_next_;
    f.capacity = new_cap;
    contig_next_ += new_cap;
  }
  GVFS_RETURN_IF_ERROR(vm_.disk_write(p, f.disk_off + offset, data));
  f.size = std::max(f.size, offset + len);
  return Status::ok();
}

Status GuestFs::append(sim::Process& p, const std::string& name,
                       const blob::BlobRef& data) {
  return write(p, name, size(name), data);
}

Status GuestFs::truncate(const std::string& name, u64 size) {
  auto it = files_.find(name);
  if (it == files_.end()) return err(ErrCode::kNoEnt, name);
  GFile& f = it->second;
  if (f.fragmented) {
    it->second.size = size;
  } else {
    it->second.size = std::min(size, f.capacity);
  }
  return Status::ok();
}

Status GuestFs::remove(const std::string& name) {
  if (files_.erase(name) == 0) return err(ErrCode::kNoEnt, name);
  return Status::ok();
}

}  // namespace gvfs::vm
