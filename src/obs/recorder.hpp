// Lock-free flight recorder — per-thread ring buffers of POD events.
//
// The first-generation tracer serialized every span through one mutex,
// which put a contended lock on the engine hot loop (per-iteration
// `sgd.step` kernel spans from every pool worker). The recorder replaces
// that with one fixed-size single-producer/single-consumer ring buffer
// per thread:
//
//   * producers (any instrumented thread) write a trivially-copyable
//     RecorderEvent into their own ring and publish it with one
//     release-store — no locks, no allocation, no syscalls;
//   * a single collector drains all rings (serialized by a mutex that is
//     never on the producer path) and feeds the events into the
//     Chrome-trace exporter via TraceCollector;
//   * memory is bounded by construction: when a ring is full the new
//     event is dropped and counted, and the drain publishes the total as
//     the `obs.recorder.dropped` metric. Drop-newest (rather than
//     overwrite-oldest) keeps the drained stream per-thread chronological
//     and makes the accounting exact: a ring of capacity C that received
//     N events drains exactly min(N, C) events and reports N - C drops.
//
// Rings are indexed by util::ThreadRegistry ids and allocated lazily by
// the owning thread, so unregistered threads cost nothing. A ring is
// never freed (threads may outlive any reset), which is what makes the
// producer path safe without reference counting.
//
// Crash/fault dump: the rings always hold the last <= capacity events per
// thread that the collector has not yet consumed, so the fault hook
// (obs::flush_on_fault, installed into sim::set_fault_dump_hook) can
// drain and persist them even when the run dies mid-round.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_registry.hpp"

namespace fedca::obs {

// Trace events only; metrics bypass the recorder and go straight to the
// FEDCA_M* registry (obs/metrics.hpp).
enum class RecordKind : std::uint8_t {
  kSpan = 0,     // t0 = start seconds, t1 = end seconds
  kInstant = 1,  // t0 = timestamp seconds
};

// POD ring-buffer slot. Fixed-size char fields instead of std::string so
// the producer path never allocates; names/args that do not fit are
// truncated and counted (obs.recorder.truncated).
struct RecorderEvent {
  static constexpr std::size_t kNameCapacity = 48;
  static constexpr std::size_t kArgCapacity = 128;

  RecordKind kind = RecordKind::kInstant;
  std::uint8_t clock = 0;       // 0 = virtual, 1 = wall
  std::uint16_t arg_bytes = 0;  // used bytes of `args`
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  double t0 = 0.0;
  double t1 = 0.0;
  char name[kNameCapacity] = {};  // NUL-terminated
  // Packed "key\0value\0" pairs — preserves arbitrary bytes (quotes,
  // newlines, '=') so the JSON writer sees exactly what was recorded.
  char args[kArgCapacity] = {};
};
static_assert(std::is_trivially_copyable_v<RecorderEvent>,
              "ring slots must be memcpy-safe");

// Appends one key/value pair to `event`'s arg blob. Returns false (and
// leaves the blob untouched) when the pair does not fit.
bool append_arg(RecorderEvent& event, const char* key, const char* value);
// Decodes the packed blob into (key, value) callbacks.
void for_each_arg(const RecorderEvent& event,
                  const std::function<void(const char*, const char*)>& fn);

// Single-producer/single-consumer bounded ring. The owning thread pushes;
// whoever holds the Recorder's drain lock pops. head_/tail_ are monotonic
// event counts, so size and drop accounting never wrap ambiguously.
class EventRing {
 public:
  explicit EventRing(std::size_t capacity)
      : capacity_(capacity), slots_(new RecorderEvent[capacity]) {}

  // Producer side. False = ring full, event dropped (and counted).
  bool try_push(const RecorderEvent& event) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head - tail_.load(std::memory_order_acquire) >= capacity_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    slots_[head % capacity_] = event;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // Consumer side: pops everything published so far, oldest first.
  std::size_t drain(const std::function<void(const RecorderEvent&)>& sink) {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t n = static_cast<std::size_t>(head - tail);
    for (; tail != head; ++tail) sink(slots_[tail % capacity_]);
    tail_.store(head, std::memory_order_release);
    return n;
  }

  // Consumer side, callback-free: appends everything published so far to
  // `out` (oldest first). The Recorder collects through this under its
  // drain lock and invokes the sink only after releasing it, so user sinks
  // never run while the lock is held.
  std::size_t pop_into(std::vector<RecorderEvent>& out) {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t n = static_cast<std::size_t>(head - tail);
    out.reserve(out.size() + n);
    for (; tail != head; ++tail) out.push_back(slots_[tail % capacity_]);
    tail_.store(head, std::memory_order_release);
    return n;
  }

  // Discards everything published so far (tests / reset).
  void discard() {
    tail_.store(head_.load(std::memory_order_acquire), std::memory_order_release);
    dropped_.store(0, std::memory_order_relaxed);
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const {
    return static_cast<std::size_t>(head_.load(std::memory_order_acquire) -
                                    tail_.load(std::memory_order_acquire));
  }
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  const std::size_t capacity_;
  std::unique_ptr<RecorderEvent[]> slots_;
  // Producer-written / consumer-written cursors on separate cache lines so
  // drains do not false-share with the hot producer store.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

class Recorder {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 8192;

  static Recorder& global();

  // Producer path: push into the calling thread's ring (allocated on
  // first use). Lock-free; a full ring drops the event and counts it.
  void record(const RecorderEvent& event);

  using Sink = std::function<void(const RecorderEvent&)>;

  // Drains every ring into `sink` (oldest-first per ring). Ring
  // consumption is serialized against concurrent drains; the sink itself
  // runs after the drain lock is released, so it may safely re-enter the
  // recorder (drain, reset, set_auto_drain_sink). Returns the number of
  // events delivered.
  std::size_t drain(const Sink& sink);

  // When a producer finds its ring nearly full it may volunteer to drain
  // (try-lock only, so the hot path never blocks) through this sink.
  // Installed once by the TraceCollector facade.
  void set_auto_drain_sink(Sink sink);
  // Gate for the volunteer drain. The wrap-around tests turn it off so
  // overflow (and its drop accounting) is deterministic.
  void set_auto_drain(bool on) {
    auto_drain_.store(on, std::memory_order_relaxed);
  }
  bool auto_drain() const { return auto_drain_.load(std::memory_order_relaxed); }

  // Total events dropped by full rings plus events from threads beyond
  // ThreadRegistry::kMaxTrackedThreads. Monotonic until reset().
  std::uint64_t dropped_total() const;
  // Names/args that did not fit their fixed slot (the event itself is
  // still recorded).
  std::uint64_t truncated_total() const {
    return truncated_.load(std::memory_order_relaxed);
  }
  void note_truncated() { truncated_.fetch_add(1, std::memory_order_relaxed); }

  // Capacity for rings allocated from now on (existing rings keep
  // theirs). Tests shrink this to force wrap-around cheaply.
  void set_ring_capacity(std::size_t capacity);
  std::size_t ring_capacity() const {
    return ring_capacity_.load(std::memory_order_relaxed);
  }

  std::size_t ring_count() const;
  std::size_t pending_events() const;

  // Discards pending events and zeroes the drop/truncation accounting.
  // Rings stay allocated (their owning threads may still be alive); the
  // ring capacity knob is restored to the default.
  void reset();

 private:
  Recorder() = default;

  EventRing* ring_for_current_thread();
  void maybe_auto_drain(const EventRing& ring);

  std::atomic<EventRing*> rings_[util::ThreadRegistry::kMaxTrackedThreads + 1] = {};
  std::atomic<std::size_t> ring_capacity_{kDefaultRingCapacity};
  std::atomic<bool> auto_drain_{true};
  std::atomic<std::uint64_t> overflow_dropped_{0};
  std::atomic<std::uint64_t> truncated_{0};
  mutable util::Mutex drain_mutex_;
  Sink auto_sink_ FEDCA_GUARDED_BY(drain_mutex_);
};

}  // namespace fedca::obs
