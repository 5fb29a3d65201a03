#include "obs/round_report.hpp"

#include <fstream>
#include <stdexcept>
#include <utility>

namespace fedca::obs {

RoundReportWriter& RoundReportWriter::global() {
  static RoundReportWriter writer;
  return writer;
}

void RoundReportWriter::set_output_path(std::string path) {
  util::MutexLock lock(mutex_);
  path_ = std::move(path);
  enabled_.store(!path_.empty(), std::memory_order_relaxed);
  if (!path_.empty()) {
    // Start fresh: the report describes one run, not an accumulation of
    // every run that ever pointed here.
    std::ofstream out(path_, std::ios::trunc);
  }
}

std::string RoundReportWriter::output_path() const {
  util::MutexLock lock(mutex_);
  return path_;
}

void RoundReportWriter::append_line(std::string line) {
  util::MutexLock lock(mutex_);
  lines_.push_back(std::move(line));
  if (path_.empty()) return;
  // Append + flush per line: cheap at round granularity, and it is the
  // crash-durability story — every completed round survives an abort.
  std::ofstream out(path_, std::ios::app);
  if (!out) {
    throw std::runtime_error("RoundReportWriter: cannot open " + path_);
  }
  out << lines_.back() << '\n';
  out.flush();
  if (!out) {
    throw std::runtime_error("RoundReportWriter: write failed for " + path_);
  }
}

std::size_t RoundReportWriter::line_count() const {
  util::MutexLock lock(mutex_);
  return lines_.size();
}

std::vector<std::string> RoundReportWriter::lines() const {
  util::MutexLock lock(mutex_);
  return lines_;
}

void RoundReportWriter::flush() const {
  util::MutexLock lock(mutex_);
  if (path_.empty()) return;
  std::ofstream out(path_, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("RoundReportWriter: cannot open " + path_);
  }
  for (const std::string& line : lines_) out << line << '\n';
  out.flush();
  if (!out) {
    throw std::runtime_error("RoundReportWriter: write failed for " + path_);
  }
}

void RoundReportWriter::reset() {
  util::MutexLock lock(mutex_);
  lines_.clear();
  path_.clear();
  enabled_.store(false, std::memory_order_relaxed);
}

}  // namespace fedca::obs
