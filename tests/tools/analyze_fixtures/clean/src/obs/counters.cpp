// src/obs is not an output-affecting layer: an unordered container here
// cannot reach result tables.
#include <unordered_map>

namespace fixture {
std::unordered_map<int, int> counters;
}  // namespace fixture
