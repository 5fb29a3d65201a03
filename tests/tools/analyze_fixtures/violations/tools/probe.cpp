// tools/ is in raw-intrinsics' scope.
#include <x86intrin.h>  // expect: raw-intrinsics

namespace fixture {
int probe() { return 0; }
}  // namespace fixture
