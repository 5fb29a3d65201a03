// The run report's line sink (run_report.jsonl).
//
// The fl layer serializes each round and async update straight from the
// engines' records (fl/run_report.hpp); this writer only collects those
// lines. It is process-global, armed by obs::configure (FEDCA_REPORT /
// ExperimentOptions::report_path), appends and flushes every line as it
// arrives — so a crashed run keeps every round it finished — and is
// re-written whole by the atexit/fault dump. obs stays independent of fl:
// the writer sees only strings.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace fedca::obs {

// Disabled until set_output_path() arms it. append_line() writes and
// flushes the line immediately.
class RoundReportWriter {
 public:
  static RoundReportWriter& global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  // Non-empty arms the writer and truncates any existing file at `path`;
  // empty disarms.
  void set_output_path(std::string path);
  std::string output_path() const;

  void append_line(std::string line);

  std::size_t line_count() const;
  std::vector<std::string> lines() const;

  // Re-writes the whole accumulated report to the output path (the
  // append path already flushed; this is the atexit/fault safety net).
  void flush() const;

  // Clears lines and disarms (tests).
  void reset();

 private:
  std::atomic<bool> enabled_{false};
  mutable util::Mutex mutex_;
  std::vector<std::string> lines_ FEDCA_GUARDED_BY(mutex_);
  std::string path_ FEDCA_GUARDED_BY(mutex_);
};

}  // namespace fedca::obs
