// Counting-allocator harness: measures heap allocations and the peak heap
// per steady-state federated round.
//
// The global operator new/delete overrides live in THIS translation unit
// only (never in the libraries), so ordinary builds are unaffected; linked
// into this binary they intercept every allocation in the process. Usage:
//
//   memory_harness [rounds=30] [warmup=3] [workers=1] [...]
//
// Prints one JSON object on stdout:
//   {"rounds":30,"workers":1,"allocs_per_round":...,"frees_per_round":...,
//    "alloc_bytes_per_round":...,"peak_bytes":...}
//
// tools/bench_memory.py runs it at 1 and 4 workers and writes
// BENCH_memory.json.
#include <malloc.h>  // malloc_usable_size (glibc)

#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "bench/common.hpp"
#include "tensor/simd/dispatch.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_frees{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::int64_t> g_current_bytes{0};
std::atomic<std::int64_t> g_peak_bytes{0};

void note_alloc(void* p) {
  if (p == nullptr) return;
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto sz = static_cast<std::int64_t>(malloc_usable_size(p));
  g_alloc_bytes.fetch_add(static_cast<std::uint64_t>(sz),
                          std::memory_order_relaxed);
  const std::int64_t cur =
      g_current_bytes.fetch_add(sz, std::memory_order_relaxed) + sz;
  std::int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (cur > peak &&
         !g_peak_bytes.compare_exchange_weak(peak, cur,
                                             std::memory_order_relaxed)) {
  }
}

void note_free(void* p) {
  if (p == nullptr) return;
  g_frees.fetch_add(1, std::memory_order_relaxed);
  g_current_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                            std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  note_alloc(p);
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  void* p = nullptr;
  if (posix_memalign(&p, align, size == 0 ? align : size) != 0) return nullptr;
  note_alloc(p);
  return p;
}

void counted_free(void* p) {
  note_free(p);
  std::free(p);
}

struct Counters {
  std::uint64_t allocs, frees, bytes;
};

Counters snapshot() {
  return {g_allocs.load(std::memory_order_relaxed),
          g_frees.load(std::memory_order_relaxed),
          g_alloc_bytes.load(std::memory_order_relaxed)};
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

int main(int argc, char** argv) {
  using namespace fedca;
  const util::Config config = bench::parse_config(argc, argv);
  const auto rounds = static_cast<std::size_t>(config.get_int("rounds", 30));
  const auto warmup = static_cast<std::size_t>(config.get_int("warmup", 3));
  const auto workers = static_cast<std::size_t>(config.get_int("workers", 1));

  // Same geometry as BM_RoundThroughput in micro_kernels.cpp (the
  // clients/iters knobs exist to localize allocation regressions).
  fl::ExperimentOptions options;
  options.model = nn::ModelKind::kCnn;
  options.num_clients = static_cast<std::size_t>(config.get_int("clients", 8));
  options.local_iterations =
      static_cast<std::size_t>(config.get_int("iters", 5));
  options.batch_size = 16;
  options.train_samples = 800;
  options.test_samples = 32;
  options.seed = 21;
  options.worker_threads = workers;
  fl::FedAvgScheme scheme;
  fl::ExperimentSetup setup = fl::make_setup(options, scheme);

  // Warmup: populate replica free lists and loader scratch so the
  // measured window sees steady state.
  for (std::size_t r = 0; r < warmup; ++r) setup.engine->run_round();

  const Counters before = snapshot();
  for (std::size_t r = 0; r < rounds; ++r) {
    const fl::RoundRecord record = setup.engine->run_round();
    (void)record;
  }
  const Counters after = snapshot();

  const double n = static_cast<double>(rounds == 0 ? 1 : rounds);
  std::printf(
      "{\"build_type\":\"%s\",\"simd_tier\":\"%s\","
      "\"rounds\":%zu,\"workers\":%zu,"
      "\"allocs_per_round\":%.1f,\"frees_per_round\":%.1f,"
      "\"alloc_bytes_per_round\":%.1f,\"peak_bytes\":%" PRId64 "}\n",
      bench::build_type(), tensor::simd::active_tier_name(), rounds, workers,
      static_cast<double>(after.allocs - before.allocs) / n,
      static_cast<double>(after.frees - before.frees) / n,
      static_cast<double>(after.bytes - before.bytes) / n,
      g_peak_bytes.load(std::memory_order_relaxed));
  return 0;
}
