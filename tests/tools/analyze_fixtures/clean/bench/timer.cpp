// bench/ times real work: wall-clock reads are outside the rule's scope.
#include <chrono>

namespace fixture {
auto start() { return std::chrono::steady_clock::now(); }
}  // namespace fixture
