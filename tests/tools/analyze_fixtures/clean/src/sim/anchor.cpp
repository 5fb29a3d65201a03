// src/sim anchors the virtual clock: a sanctioned host-clock read.
#include <chrono>

namespace fixture {
auto anchor() { return std::chrono::high_resolution_clock::now(); }
}  // namespace fixture
