// bench/ is in raw-rng's scope and, like every C++ file outside
// src/tensor/simd/, in raw-intrinsics' scope.
#include <ctime>
#include <immintrin.h>  // expect: raw-intrinsics

namespace fixture {
unsigned seed() { return static_cast<unsigned>(time(nullptr)); }  // expect: raw-rng
}  // namespace fixture
