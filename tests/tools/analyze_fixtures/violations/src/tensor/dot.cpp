// A float accumulator in a kernel file that never documents its
// summation order.

namespace fixture {

float dot(const float* a, const float* b, int n) {
  float acc = 0.0f;  // expect: float-accum
  for (int i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

}  // namespace fixture
