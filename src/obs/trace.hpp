// Span tracer — Chrome trace_event JSON over two clock domains.
//
// The FedCA harness interleaves two notions of time:
//   * the simulator's *virtual* clock (download/compute/upload/aggregation
//     in virtual seconds — what the paper's figures are drawn in), and
//   * the host's *wall* clock (real SGD steps, conv2d/LSTM kernels,
//     profiler anchor recording — what actually costs CPU).
// The tracer keeps them distinct by construction: every virtual process
// gets its own pid (allocated per engine: one for the server, one per
// client), while all wall-clock spans live in the reserved pid
// kWallClockPid with per-thread tids. Events carry a "virtual"/"wall"
// category so either domain can be filtered out in the viewer.
//
// Output is the Chrome trace_event JSON array format: load the file in
// chrome://tracing or https://ui.perfetto.dev. tools/check_trace.py
// validates emitted files.
//
// Recording is disabled by default; set_output_path() (or the FEDCA_TRACE
// environment variable, resolved by obs::configure()) arms it. Disabled
// recording sites cost one relaxed atomic load.
//
// Since the flight recorder (obs/recorder.hpp) landed, this class is a
// *facade*: record_span/record_instant/record_wall_span encode a POD
// RecorderEvent and push it into the calling thread's lock-free ring —
// the producer path takes no lock and performs no allocation. Every read
// API (event_count, snapshot_events, write_chrome_json, flush, reset)
// first drains the rings into the internal event vector, so call sites
// and tests observe exactly the old semantics without churn.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace fedca::obs {

struct RecorderEvent;  // obs/recorder.hpp

enum class Clock { kVirtual, kWall };

// pid reserved for the wall-clock domain ("host" process).
inline constexpr std::uint32_t kWallClockPid = 0;

using TraceArgs = std::vector<std::pair<std::string, std::string>>;

struct TraceEvent {
  std::string name;
  char phase = 'X';     // 'X' complete span, 'i' instant
  Clock clock = Clock::kVirtual;
  double ts_us = 0.0;   // microseconds in the event's clock domain
  double dur_us = 0.0;  // 'X' only
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  TraceArgs args;
};

class TraceCollector {
 public:
  static TraceCollector& global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled);
  // Non-empty path arms the collector; flush() writes there.
  void set_output_path(std::string path);
  std::string output_path() const;

  // True when per-kernel wall spans (conv2d/LSTM forward/backward, SGD
  // steps) should be recorded too — they multiply event counts by the
  // batch loop, so they are opt-in (FEDCA_TRACE_DETAIL=kernels).
  bool kernel_detail() const { return kernel_detail_.load(std::memory_order_relaxed); }
  void set_kernel_detail(bool on);

  // Reserves `n` consecutive pids for one engine's virtual processes
  // (server + clients). Wall pid 0 is never handed out.
  std::uint32_t allocate_process_ids(std::uint32_t n);
  void set_process_name(std::uint32_t pid, std::string name);

  // Spans/instants on the virtual clock, in virtual seconds.
  void record_span(std::uint32_t pid, std::string name, double start_seconds,
                   double end_seconds, TraceArgs args = {}, std::uint32_t tid = 0);
  void record_instant(std::uint32_t pid, std::string name, double t_seconds,
                      TraceArgs args = {}, std::uint32_t tid = 0);
  // Wall-clock span, in seconds since process trace epoch, attributed to
  // pid kWallClockPid and the calling thread's tid.
  void record_wall_span(std::string name, double start_seconds, double end_seconds,
                        TraceArgs args = {});

  // Seconds since the collector's wall epoch (steady clock).
  static double wall_now_seconds();

  std::size_t event_count() const;
  std::vector<TraceEvent> snapshot_events() const;
  std::map<std::uint32_t, std::string> process_names() const;

  // Serializes metadata + events (sorted by pid, tid, ts) as a Chrome
  // trace JSON array.
  void write_chrome_json(std::ostream& os) const;
  void save(const std::string& path) const;
  // Writes to output_path() when set; true on success or no-op.
  bool flush() const;

  // Clears events, names, pid allocation, and output path (tests).
  void reset();

 private:
  // Converts one drained recorder event (a span or an instant) into a
  // TraceEvent appended to events_. Metrics never pass through the
  // recorder: they go straight to the FEDCA_M* registry.
  void consume(const RecorderEvent& event) const;
  // Empties the recorder rings into events_ and publishes the recorder's
  // drop/truncation accounting (obs.recorder.*). Every read API calls
  // this first, which is what lets the producer path stay lock-free.
  void drain_pending() const;

  std::atomic<bool> enabled_{false};
  std::atomic<bool> kernel_detail_{false};
  mutable util::Mutex mutex_;
  mutable std::vector<TraceEvent> events_ FEDCA_GUARDED_BY(mutex_);
  std::map<std::uint32_t, std::string> process_names_ FEDCA_GUARDED_BY(mutex_);
  std::uint32_t next_pid_ FEDCA_GUARDED_BY(mutex_) = 1;
  std::string path_ FEDCA_GUARDED_BY(mutex_);
  mutable std::uint64_t published_dropped_ FEDCA_GUARDED_BY(mutex_) = 0;
  mutable std::uint64_t published_truncated_ FEDCA_GUARDED_BY(mutex_) = 0;
};

// RAII wall-clock span: measures a real-work region with the steady clock
// and records it when tracing is on. `kernel_level` spans additionally
// require kernel_detail().
class ScopedWallSpan {
 public:
  explicit ScopedWallSpan(const char* name, bool kernel_level = false);
  ~ScopedWallSpan();
  ScopedWallSpan(const ScopedWallSpan&) = delete;
  ScopedWallSpan& operator=(const ScopedWallSpan&) = delete;

 private:
  const char* name_;
  bool active_;
  double start_seconds_ = 0.0;
};

// Resolves FEDCA_TRACE / FEDCA_METRICS / FEDCA_TRACE_DETAIL /
// FEDCA_REPORT. Explicit arguments win over the environment; empty
// results leave the collector / registry / report writer untouched.
// Returns the resolved (trace, metrics) paths. Also registers (once) an
// atexit flush of every armed output, so a run that dies mid-round still
// leaves a parseable trace/metrics file behind instead of a truncated
// one.
std::pair<std::string, std::string> configure(const std::string& trace_path = "",
                                              const std::string& metrics_path = "",
                                              const std::string& report_path = "");

// Writes the trace (to its output path), the metrics snapshot (to
// `metrics_path`, when non-empty) and the round report (to its own
// output path). Safe to call repeatedly — files are rewritten with
// everything accumulated so far.
void flush_outputs(const std::string& metrics_path = "");

// Crash-dump hook: flushes every armed output using the paths remembered
// by the last configure() call. Installed into sim::set_fault_dump_hook
// by the engines so injected crashes persist the recorder's last events;
// also the body of the atexit handler. Never throws.
void flush_on_fault();

}  // namespace fedca::obs

#define FEDCA_OBS_CONCAT_INNER(a, b) a##b
#define FEDCA_OBS_CONCAT(a, b) FEDCA_OBS_CONCAT_INNER(a, b)
// Wall-clock RAII span for engine-level real work (aggregation, profiler
// anchor recording).
#define FEDCA_WALL_SPAN(name) \
  ::fedca::obs::ScopedWallSpan FEDCA_OBS_CONCAT(fedca_wall_span_, __LINE__)(name)
// Per-kernel wall span (conv2d/LSTM/SGD) — needs FEDCA_TRACE_DETAIL=kernels.
#define FEDCA_KERNEL_SPAN(name)                                            \
  ::fedca::obs::ScopedWallSpan FEDCA_OBS_CONCAT(fedca_kernel_span_, __LINE__)( \
      name, /*kernel_level=*/true)
