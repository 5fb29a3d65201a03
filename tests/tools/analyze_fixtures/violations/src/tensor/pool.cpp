// A file named pool.cpp gets no exemption: tensor storage is owned by
// std::vector, so raw allocation is a finding anywhere in src/tensor.
#include <cstdlib>

namespace fixture {

float* pool_grab(int n) { return new float[n]; }  // expect: raw-tensor-alloc
void* pool_blob() { return malloc(64); }           // expect: raw-tensor-alloc

}  // namespace fixture
