#include "tensor/simd/dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "tensor/simd/kernels.hpp"

namespace fedca::tensor::simd {

namespace {

constexpr int kUnresolved = -1;

// Resolved tier, cached for the process. Lazy so the first kernel call
// (not static-init order) pays the env + CPUID probe exactly once.
std::atomic<int> g_tier{kUnresolved};

Tier clamp_to_supported(Tier wanted) {
  if (wanted == Tier::kAvx512 && !avx512_supported()) wanted = Tier::kAvx2;
  if (wanted == Tier::kAvx2 && !avx2_supported()) return Tier::kScalar;
  return wanted;
}

Tier resolve_from_env() {
  const char* env = std::getenv("FEDCA_SIMD");
  if (env == nullptr || std::strcmp(env, "") == 0 ||
      std::strcmp(env, "auto") == 0) {
    if (avx512_supported()) return Tier::kAvx512;
    if (avx2_supported()) return Tier::kAvx2;
    return Tier::kScalar;
  }
  if (std::strcmp(env, "avx512") == 0) return clamp_to_supported(Tier::kAvx512);
  if (std::strcmp(env, "avx2") == 0) return clamp_to_supported(Tier::kAvx2);
  // "scalar" and anything unrecognized: the portable kernels. Unknown
  // values must not abort mid-experiment; scalar is always correct.
  return Tier::kScalar;
}

}  // namespace

bool avx2_supported() {
#if defined(__x86_64__) || defined(_M_X64)
  // The AVX2 kernels use fused multiply-add throughout (that IS the
  // association contract), so both feature bits are required.
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool avx512_supported() {
#if defined(__x86_64__) || defined(_M_X64)
  return avx512_compiled() && avx2_supported() &&
         __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

Tier active_tier() {
  int t = g_tier.load(std::memory_order_acquire);
  if (t == kUnresolved) {
    const Tier resolved = resolve_from_env();
    int expected = kUnresolved;
    g_tier.compare_exchange_strong(expected, static_cast<int>(resolved),
                                   std::memory_order_acq_rel);
    t = g_tier.load(std::memory_order_acquire);
  }
  return static_cast<Tier>(t);
}

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kScalar: return "scalar";
    case Tier::kAvx2: return "avx2";
    case Tier::kAvx512: return "avx512";
  }
  return "scalar";
}

const char* active_tier_name() { return tier_name(active_tier()); }

void set_tier_for_testing(Tier tier) {
  g_tier.store(static_cast<int>(clamp_to_supported(tier)),
               std::memory_order_release);
}

void reset_tier_from_env() {
  g_tier.store(static_cast<int>(resolve_from_env()), std::memory_order_release);
}

}  // namespace fedca::tensor::simd
