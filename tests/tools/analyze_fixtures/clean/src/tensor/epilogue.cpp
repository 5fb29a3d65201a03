// Correct waiver use in src/tensor: a one-term float accumulator and a
// non-float metadata arena.

namespace fixture {

float epilogue(float x) {
  float acc = x;  // analyze:waive(float-accum) scalar epilogue, single term
  return acc;
}

char* arena() {
  return new char[4096];  // analyze:waive(raw-tensor-alloc) metadata arena
}

}  // namespace fixture
