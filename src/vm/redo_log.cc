#include "vm/redo_log.h"

#include <algorithm>
#include <vector>


namespace gvfs::vm {

Status RedoLog::append(sim::Process& p, u64 disk_off, const blob::BlobRef& data) {
  if (!data || data->size() == 0) return Status::ok();
  if (disk_off % grain_ != 0) return err(ErrCode::kInval, "unaligned redo write");
  u64 len = data->size();
  u64 pos = 0;
  while (pos < len) {
    u64 n = std::min<u64>(grain_, len - pos);
    u64 grain_idx = (disk_off + pos) / grain_;
    auto it = index_.find(grain_idx);
    u64 log_off;
    if (it != index_.end()) {
      log_off = it->second;  // overwrite in place
    } else {
      log_off = log_size_;
      log_size_ += grain_;
      index_[grain_idx] = log_off;
    }
    auto slice = std::make_shared<blob::SliceBlob>(data, pos, n);
    GVFS_RETURN_IF_ERROR(fs_.write(p, path_, log_off, slice));
    pos += n;
  }
  return Status::ok();
}

bool RedoLog::covers(u64 disk_off) const {
  return index_.count(disk_off / grain_) != 0;
}

Result<blob::BlobRef> RedoLog::read(sim::Process& p, u64 disk_off, u64 len) {
  std::vector<blob::Piece> out;
  u64 pos = 0;
  while (pos < len) {
    u64 abs = disk_off + pos;
    u64 grain_idx = abs / grain_;
    u64 within = abs % grain_;
    u64 n = std::min<u64>(grain_ - within, len - pos);
    auto it = index_.find(grain_idx);
    if (it == index_.end()) return err(ErrCode::kNoEnt, "grain not in redo log");
    GVFS_ASSIGN_OR_RETURN(blob::BlobRef piece,
                          fs_.read(p, path_, it->second + within, n));
    u64 got = std::min<u64>(n, piece->size());
    if (got > 0) out.push_back({pos, got, std::move(piece), 0});
    pos += n;
  }
  return blob::make_pieces(std::move(out), len);
}

}  // namespace gvfs::vm
