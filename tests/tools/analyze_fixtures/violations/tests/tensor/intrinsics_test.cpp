// tests/ is in raw-intrinsics' scope.
#include <x86intrin.h>  // expect: raw-intrinsics

namespace fixture {
int lanes() { return 8; }
}  // namespace fixture
