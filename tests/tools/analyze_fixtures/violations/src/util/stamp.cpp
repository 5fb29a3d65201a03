// src/util is outside the wall-clock exemptions (src/obs, src/sim).
#include <chrono>

namespace fixture {
auto stamp() { return std::chrono::system_clock::now(); }  // expect: wall-clock
}  // namespace fixture
