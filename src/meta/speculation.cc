#include "meta/speculation.h"

#include <sstream>

namespace gvfs::meta {

namespace {

// Consider a file "fully read" above this touched fraction.
constexpr double kFullReadThreshold = 0.9;
// Require this many consistent sessions before speculating.
constexpr u32 kMinSessions = 2;
// Zero maps pay off above this zero fraction.
constexpr double kZeroMapThreshold = 0.5;

}  // namespace

const char* recommendation_name(Recommendation r) {
  switch (r) {
    case Recommendation::kNone: return "none";
    case Recommendation::kZeroMapOnly: return "zero-map";
    case Recommendation::kFileChannel: return "file-channel";
  }
  return "?";
}

void KnowledgeBase::record(const std::string& app, const std::string& file_class,
                           const AccessObservation& obs) {
  Stats& s = stats_[key_(app, file_class)];
  ++s.sessions;
  double touched = obs.file_size == 0
                       ? 0.0
                       : static_cast<double>(obs.bytes_touched) /
                             static_cast<double>(obs.file_size);
  if (touched >= kFullReadThreshold) ++s.full_reads;
  if (obs.sequential) ++s.sequential_reads;
  s.touched_fraction_sum += touched;
  s.zero_fraction_sum += obs.zero_fraction;
}

Recommendation KnowledgeBase::recommend(const std::string& app,
                                        const std::string& file_class) const {
  auto it = stats_.find(key_(app, file_class));
  if (it == stats_.end()) return Recommendation::kNone;
  const Stats& s = it->second;
  if (s.sessions < kMinSessions) return Recommendation::kNone;
  // Whole-file-needed every session so far: the file channel wins (the
  // paper's .vmss case — "the entire memory state file is always required").
  if (s.full_reads == s.sessions) return Recommendation::kFileChannel;
  // Partially-accessed but mostly-zero content: a zero map filters reads
  // without forcing the whole transfer.
  double mean_zero = s.zero_fraction_sum / s.sessions;
  if (mean_zero >= kZeroMapThreshold) return Recommendation::kZeroMapOnly;
  return Recommendation::kNone;
}

u32 KnowledgeBase::sessions(const std::string& app,
                            const std::string& file_class) const {
  auto it = stats_.find(key_(app, file_class));
  return it == stats_.end() ? 0 : it->second.sessions;
}

std::string KnowledgeBase::serialize() const {
  std::ostringstream out;
  out << "gvfs-kb 1\n";
  for (const auto& [key, s] : stats_) {
    std::string app = key.substr(0, key.find('\t'));
    std::string cls = key.substr(key.find('\t') + 1);
    out << app << " " << cls << " " << s.sessions << " " << s.full_reads << " "
        << s.sequential_reads << " " << s.touched_fraction_sum << " "
        << s.zero_fraction_sum << "\n";
  }
  return out.str();
}

Result<KnowledgeBase> KnowledgeBase::parse(const std::string& text) {
  std::istringstream in(text);
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != "gvfs-kb" || version != 1) {
    return err(ErrCode::kInval, "bad knowledge-base header");
  }
  KnowledgeBase kb;
  std::string app, cls;
  Stats s;
  while (in >> app >> cls >> s.sessions >> s.full_reads >> s.sequential_reads >>
         s.touched_fraction_sum >> s.zero_fraction_sum) {
    kb.stats_[key_(app, cls)] = s;
  }
  return kb;
}

}  // namespace gvfs::meta
