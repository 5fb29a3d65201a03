// float-accum reads kernel .cpp files only: a header is out of scope.
#pragma once

namespace fixture {
inline float twice(float x) {
  float acc = x + x;
  return acc;
}
}  // namespace fixture
