// False-positive elimination: every token below that would trip a rule in
// live code sits in a comment, a string, or a context the scope-aware
// checks must distinguish. The whole tree must analyze clean.
#include <ctime>
#include <string>

namespace fixture {

// std::rand() in a comment is documentation, not a call.
// The AVX2 path (#include <immintrin.h>) lives in src/tensor/simd/.
// Legacy engines held a std::vector<ClientDevice> here.
std::string doc() {
  // steady_clock::now() — also just prose.
  return "std::rand() and srand(7) and new float[8] and malloc(4)";
}

struct Timer {
  long time(long t) { return t; }  // a member named `time` is not ::time
  long srand(long s) { return s; }
};

long member_calls(Timer& timer) {
  // Member spellings the raw-rng check must not match.
  return timer.time(3) + timer.srand(4);
}

struct Arena {
  void* malloc(int) { return nullptr; }  // member, and not in src/tensor
};

long real_time_arg() {
  // time() with a real argument is not the seed idiom.
  long out = 0;
  return static_cast<long>(time(&out));
}

}  // namespace fixture
