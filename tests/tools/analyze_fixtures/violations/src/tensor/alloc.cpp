// Raw allocation in src/tensor.
#include <cstdlib>

namespace fixture {

float* grab(int n) {
  float* raw = new float[n];  // expect: raw-tensor-alloc
  void* blob = malloc(64);    // expect: raw-tensor-alloc
  free(blob);                 // expect: raw-tensor-alloc
  return raw;
}

}  // namespace fixture
