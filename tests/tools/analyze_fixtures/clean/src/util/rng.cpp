// src/util/rng.* is the one sanctioned RNG module.
#include <random>

namespace fixture {
std::random_device dev_for_docs_only;
}  // namespace fixture
