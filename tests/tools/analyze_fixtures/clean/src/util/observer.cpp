// Correct waiver use for the remaining waivable rules outside src/fl:
// a host-clock read that feeds metrics only, and a spin-hint intrinsic.
#include <chrono>
#include <immintrin.h>  // analyze:waive(raw-intrinsics) _mm_pause spin hint only

namespace fixture {
auto observed() {
  return std::chrono::steady_clock::now();  // analyze:waive(wall-clock) metrics only
}
}  // namespace fixture
