// Middleware application-knowledge base (§3.2.2): "The key to the success of
// this technique is the proper speculation of an application's behavior.
// Grid middleware should be able to accumulate knowledge for applications
// from their past behaviors and make intelligent decisions based on the
// knowledge."
//
// This module is that accumulator: per (application, file-class) it records
// how much of each file past sessions actually touched and whether accesses
// were whole-file sequential. From the history it recommends which meta-data
// to generate: the file channel for files always read in full (e.g. .vmss),
// nothing for sparsely-touched files (e.g. .vmdk), a zero map when content
// warrants it.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace gvfs::meta {

// What one session observed about one file.
struct AccessObservation {
  u64 file_size = 0;
  u64 bytes_touched = 0;     // distinct bytes accessed
  bool sequential = false;   // dominated by a sequential scan
  double zero_fraction = 0;  // of the content, if scanned
};

enum class Recommendation {
  kNone,         // on-demand block access is best (sparse working set)
  kZeroMapOnly,  // mostly-zero content, partial access
  kFileChannel,  // whole file always needed: compress+copy+uncompress
};

const char* recommendation_name(Recommendation r);

class KnowledgeBase {
 public:
  // Record what a finished session observed. `file_class` is a stable key,
  // e.g. the file's extension ("vmss") or a middleware-assigned tag.
  void record(const std::string& app, const std::string& file_class,
              const AccessObservation& obs);

  // Current recommendation for (app, file_class); kNone until enough
  // history exists.
  [[nodiscard]] Recommendation recommend(const std::string& app,
                                         const std::string& file_class) const;

  // History depth for a key.
  [[nodiscard]] u32 sessions(const std::string& app,
                             const std::string& file_class) const;

  // Serialize/restore (middleware persists its knowledge between sessions).
  [[nodiscard]] std::string serialize() const;
  static Result<KnowledgeBase> parse(const std::string& text);

  bool operator==(const KnowledgeBase& o) const { return stats_ == o.stats_; }

 private:
  struct Stats {
    u32 sessions = 0;
    u32 full_reads = 0;
    u32 sequential_reads = 0;
    double touched_fraction_sum = 0;
    double zero_fraction_sum = 0;

    bool operator==(const Stats& o) const {
      return sessions == o.sessions && full_reads == o.full_reads &&
             sequential_reads == o.sequential_reads;
    }
  };

  static std::string key_(const std::string& app, const std::string& file_class) {
    return app + "\t" + file_class;
  }

  std::map<std::string, Stats> stats_;
};

}  // namespace gvfs::meta
