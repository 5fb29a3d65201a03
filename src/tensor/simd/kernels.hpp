// SIMD kernel tier: per-ISA entry points + the shared microkernel contract.
//
// Every kernel here implements the EXACT association order documented in
// ops.hpp. The rules that make tiers bit-identical:
//
//   * GEMM: each C element is one sequential fused-multiply-add chain over
//     k ascending, seeded at 0 (std::fma in portable code, vfmadd in the
//     AVX2 tier). A chain may round-trip through C memory between k-blocks
//     (float stores are value-preserving), so the association is
//     independent of every blocking constant, of packing, of lane width,
//     and of thread partitioning — vector lanes always map to DISTINCT
//     output elements.
//   * axpy: per element y = fma(alpha, x, y).
//   * dot / l2_norm / l1_norm: eight independent double lanes (element i
//     feeds lane i mod 8) combined by a fixed halving tree, scalar tail
//     appended last; products use separate multiply+add (never fused).
//   * scale / bias_add / row_sum / quantize / dequantize: element-wise or
//     pure-addition chains in source order.
//
// The AVX2 functions are declared unconditionally but defined only when
// the build targets x86-64 (kernels_avx2.cpp is empty elsewhere); the
// dispatcher never selects a tier the build does not carry, and ops.cpp
// guards every call site on the architecture macro.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace fedca::tensor::simd {

// Register-tile shape of the packed GEMM microkernel: kMr rows of A by
// kNr columns of B (two 256-bit float vectors) per call.
inline constexpr std::size_t kMr = 6;
inline constexpr std::size_t kNr = 16;

// Packed-panel microkernel: C[r][j] (+)= sum_k ap[k][r] * bp[k][j] as one
// fma chain per element. `ap` is a kMr-wide A tile (layout ap[k * kMr + r],
// zero-padded rows), `bp` a kNr-wide B tile (layout bp[k * kNr + j],
// zero-padded columns); `first` seeds the chain at 0, otherwise at the
// running value already stored in C. Only mr_eff x nr_eff results are
// written back.
using MicroKernel = void (*)(std::size_t kb, const float* ap, const float* bp,
                             float* c, std::size_t ldc, std::size_t mr_eff,
                             std::size_t nr_eff, bool first);

// Portable microkernel: explicit std::fma chains the compiler may
// vectorize freely (lanes are distinct output elements, so any
// vectorization preserves the association). Also the edge-tile fallback
// inside the vector tiers.
inline void microkernel_generic(std::size_t kb, const float* ap,
                                const float* bp, float* c, std::size_t ldc,
                                std::size_t mr_eff, std::size_t nr_eff,
                                bool first) {
  float acc[kMr][kNr];
  for (std::size_t r = 0; r < kMr; ++r) {
    for (std::size_t j = 0; j < kNr; ++j) {
      acc[r][j] = (!first && r < mr_eff && j < nr_eff) ? c[r * ldc + j] : 0.0f;
    }
  }
  for (std::size_t kk = 0; kk < kb; ++kk) {
    const float* arow = ap + kk * kMr;
    const float* brow = bp + kk * kNr;
    for (std::size_t r = 0; r < kMr; ++r) {
      const float av = arow[r];
      // Lanes are distinct output elements, so vectorizing this loop (the
      // pragma is a no-op without -fopenmp-simd) cannot change any chain.
#pragma omp simd
      for (std::size_t j = 0; j < kNr; ++j) {
        acc[r][j] = std::fma(av, brow[j], acc[r][j]);
      }
    }
  }
  for (std::size_t r = 0; r < mr_eff; ++r) {
    for (std::size_t j = 0; j < nr_eff; ++j) c[r * ldc + j] = acc[r][j];
  }
}

#if defined(__x86_64__) || defined(_M_X64)

// ---- AVX-512F GEMM microkernel (kernels_avx512.cpp) ----
// Same tile, zmm-wide registers. The AVX-512 tier reuses the AVX2 span
// kernels (they are already the contract's vector shape); only the GEMM
// microkernel widens.

// True when this build's compiler could target AVX-512F.
bool avx512_compiled();
void gemm_microkernel_avx512(std::size_t kb, const float* ap, const float* bp,
                             float* c, std::size_t ldc, std::size_t mr_eff,
                             std::size_t nr_eff, bool first);

// ---- AVX2+FMA tier (kernels_avx2.cpp) ----

void gemm_microkernel_avx2(std::size_t kb, const float* ap, const float* bp,
                           float* c, std::size_t ldc, std::size_t mr_eff,
                           std::size_t nr_eff, bool first);

void axpy_avx2(float alpha, const float* x, float* y, std::size_t n);
void scale_avx2(float alpha, float* y, std::size_t n);
double dot_avx2(const float* x, const float* y, std::size_t n);
double l1_norm_avx2(const float* x, std::size_t n);
void bias_add_avx2(float* out, std::size_t rows, const float* bias,
                   std::size_t cols);
void row_sum_avx2(const float* in, std::size_t rows, float* out,
                  std::size_t cols);

void minmax_avx2(const float* x, std::size_t n, float* lo, float* hi);
void quantize_int8_avx2(const float* x, std::size_t n, float inv_scale,
                        std::int32_t zero_point, std::int8_t* q);
void dequantize_int8_avx2(const std::int8_t* q, std::size_t n, float scale,
                          std::int32_t zero_point, float* out);
void fake_quantize_int8_avx2(float* x, std::size_t n, float inv_scale,
                             float scale, std::int32_t zero_point);

#endif  // x86-64

}  // namespace fedca::tensor::simd
