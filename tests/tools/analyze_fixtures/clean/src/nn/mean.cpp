// Accumulating in double and casting once at the end is the stronger
// pattern: neither the double accumulator nor the cast is flagged.

namespace fixture {

float mean(const float* a, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; ++i) acc += a[i];
  return static_cast<float>(acc / n);
}

}  // namespace fixture
