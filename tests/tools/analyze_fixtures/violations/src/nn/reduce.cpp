// src/nn kernels: an undocumented float accumulator (matched
// case-insensitively on acc/sum) and an ISA header outside the dispatch
// tier.
#include <arm_neon.h>  // expect: raw-intrinsics

namespace fixture {

float row_total(const float* a, int n) {
  float rowSum = 0.0f;  // expect: float-accum
  for (int i = 0; i < n; ++i) rowSum += a[i];
  return rowSum;
}

}  // namespace fixture
