// examples/ is in raw-rng's scope.
#include <random>

namespace fixture {
unsigned draw() {
  std::random_device rd;  // expect: raw-rng
  return rd();
}
}  // namespace fixture
