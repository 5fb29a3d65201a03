// Numerical kernels over raw float spans and Tensors.
//
// Two audiences share these kernels:
//   * the nn/ substrate (gemm, im2col, elementwise math), and
//   * the FedCA core (dot products, norms, cosine similarity — Eqs. 1 & 6
//     of the paper are built directly from `dot`, `l2_norm`, and
//     `cosine_similarity`).
// All span-based functions require equal lengths and are checked.
//
// Accumulation policy (uniform across the optimized kernels, and across
// every FEDCA_SIMD dispatch tier — see tensor/simd/dispatch.hpp):
//   * All three GEMM variants accumulate in float. Each output element is
//     one sequential fused-multiply-add chain over k ascending, seeded at
//     0 (std::fma in portable code, vfmadd in the AVX2 tier). A chain may
//     round-trip through C memory between k-blocks — float stores are
//     value-preserving — so the association is independent of blocking
//     constants, panel packing, vector lane width, and thread
//     partitioning (row blocks never split an output element's
//     reduction). Results are bit-reproducible run to run, across worker
//     counts, and across dispatch tiers.
//   * `axpy` is a per-element fused multiply-add: y = fma(alpha, x, y).
//   * Span reductions that feed virtual-time and FedCA-metric decisions
//     (`dot`, `l2_norm`, `l1_norm`) accumulate in double over eight fixed
//     lanes (element i feeds lane i mod 8) with a fixed halving-tree
//     combine and a scalar tail appended last; lane products are separate
//     multiply + add, never fused. Again bit-reproducible across tiers.
//   * These kernel translation units are compiled with -ffp-contract=off:
//     fusion happens exactly where the contract says fma and nowhere
//     else, so the compiler cannot silently change the association.
// The naive kernels the optimized ones replaced are retained under
// tensor::ref for property tests and benches; ref::gemm_nt keeps its
// historical double accumulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "tensor/tensor.hpp"

namespace fedca::util {
class ThreadPool;
}

namespace fedca::tensor {

// ---- Span kernels (the FL layer works on flat update vectors) ----

// y += alpha * x
void axpy(float alpha, std::span<const float> x, std::span<float> y);
// y = x (sizes must match)
void copy(std::span<const float> x, std::span<float> y);
// elementwise y *= alpha
void scale(float alpha, std::span<float> y);
// sum_i x[i] * y[i], accumulated in double for stability.
double dot(std::span<const float> x, std::span<const float> y);
// sqrt(dot(x, x))
double l2_norm(std::span<const float> x);
// sum_i |x[i]|
double l1_norm(std::span<const float> x);
// Cosine similarity of two equal-length vectors; returns 0 when either has
// zero norm (the convention the FedCA retransmission check needs: an
// all-zero eager update never "matches" a non-zero final one).
double cosine_similarity(std::span<const float> x, std::span<const float> y);
// min(|x|,|y|) / max(|x|,|y|) with |.| = L2 norm; 1 when both are zero,
// 0 when exactly one is zero. This is the magnitude-similarity factor of
// the paper's statistical-progress metric (Eq. 1).
double magnitude_similarity(std::span<const float> x, std::span<const float> y);

// ---- Fused dense-layer helpers ----

// out[r * bias.size() + j] += bias[j] for every row r in [0, rows).
// `out` must have exactly rows * bias.size() elements.
void bias_add(std::span<float> out, std::size_t rows, std::span<const float> bias);
// out[j] += sum_r in[r * out.size() + j] — the column sums of a row-major
// rows x out.size() matrix, *accumulated* into `out` (gradient convention:
// callers zero the destination via Module::zero_grad). Rows are consumed in
// ascending order, so the float association is fixed.
void row_sum(std::span<const float> in, std::size_t rows, std::span<float> out);

// ---- Tensor helpers ----

// out = a + b (same shape)
Tensor add(const Tensor& a, const Tensor& b);
// out = a - b (same shape)
Tensor sub(const Tensor& a, const Tensor& b);
// a += alpha * b (same shape), in place.
void add_scaled(Tensor& a, float alpha, const Tensor& b);
// Into-destination variants: write a+b / a-b into `out`, reusing its
// storage when the shape already matches (no allocation in steady state).
// Identical element order and arithmetic to add()/sub().
void add_into(const Tensor& a, const Tensor& b, Tensor& out);
void sub_into(const Tensor& a, const Tensor& b, Tensor& out);
// a -= b (same shape), in place.
void sub_inplace(Tensor& a, const Tensor& b);

// ---- Int8 affine quantization ----
//
// Per-span asymmetric int8 quantization: x ~ scale * (q - zero_point),
// q in [-128, 127]. Parameters always make exact zero representable (the
// FedCA eager wire + error-feedback path depends on "no change" encoding
// losslessly). Rounding is nearest-even in every tier, so quantized bytes
// are identical across FEDCA_SIMD dispatch tiers.

struct QuantParams {
  float scale = 1.0f;
  std::int32_t zero_point = 0;
};

// Min/max-derived parameters for `x` (zero forced into range; all-zero
// spans get scale 1).
QuantParams compute_quant_params(std::span<const float> x);
// q[i] = clamp(round(x[i] / scale) + zero_point, -128, 127).
void quantize_int8(std::span<const float> x, const QuantParams& p,
                   std::span<std::int8_t> q);
// out[i] = scale * (q[i] - zero_point).
void dequantize_int8(std::span<const std::int8_t> q, const QuantParams& p,
                     std::span<float> out);
// In-place quantize-then-dequantize (no int8 staging buffer): what the
// receiver of an int8 transmission would reconstruct.
void fake_quantize_int8(std::span<float> x, const QuantParams& p);

// ---- GEMM ----
//
// Cache-blocked (Mc/Kc/Nc), panel-packed, register-tiled kernels with the
// fixed association order described at the top of this header. All three
// variants, at every size, take one route: the packed microkernel
// (transposition is absorbed during packing), dispatched per call to the
// portable, AVX2 or AVX-512 tier. There is no separate small-problem
// path, so the vector tiers run every shape the models use. Raw-pointer
// variants are exposed so layers that already know their geometry (conv
// im2col panels, per-sample slices) can avoid staging copies; the Tensor
// overloads validate shapes and forward to them.

// C(mxn) = A(mxk) * B(kxn); row-major, C overwritten.
void gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
          const float* b, float* c);
void gemm(const Tensor& a, const Tensor& b, Tensor& c);
// C(mxn) = A(mxk) * B(nxk)^T; row-major, C overwritten.
void gemm_nt(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c);
void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c);
// C(kxn) = A(mxk)^T * B(mxn); row-major, C overwritten.
void gemm_tn(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c);
void gemm_tn(const Tensor& a, const Tensor& b, Tensor& c);

// Opt-in pool-parallel row-block path for large GEMMs. When a pool is set,
// calls to any of the three variants whose 2*m*k*n flop count reaches
// `min_flops` partition their C rows across the pool. Bit-identical to the serial path: a C row's
// reduction is never split across workers, so every element sees the same
// association order. Off by default; enable explicitly (benches, offline
// tools). Do NOT enable while the round engines train clients in parallel —
// nested parallel_for on one pool can deadlock. Not thread-safe to mutate
// concurrently with in-flight GEMMs; pass nullptr to disable.
void set_gemm_threading(util::ThreadPool* pool, std::size_t min_flops = 1u << 22);

// Naive reference kernels (the pre-optimization implementations), retained
// verbatim for property tests and before/after benches. ref::gemm_nt keeps
// the historical double accumulator.
namespace ref {
void gemm(const Tensor& a, const Tensor& b, Tensor& c);
void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c);
void gemm_tn(const Tensor& a, const Tensor& b, Tensor& c);
}  // namespace ref

// ---- Convolution lowering ----

// Geometry of a 2-D convolution with square behaviour per-axis.
struct Conv2dGeometry {
  std::size_t in_channels = 0;
  std::size_t in_h = 0;
  std::size_t in_w = 0;
  std::size_t kernel_h = 0;
  std::size_t kernel_w = 0;
  std::size_t stride = 1;
  std::size_t pad = 0;

  std::size_t out_h() const { return (in_h + 2 * pad - kernel_h) / stride + 1; }
  std::size_t out_w() const { return (in_w + 2 * pad - kernel_w) / stride + 1; }
};

// im2col: expands one image (C,H,W flattened in `image`) to a matrix of
// shape (C*kh*kw) x (out_h*out_w), written into `columns` (row-major, must be
// pre-sized). Padding reads as zero. With pad > 0 the image is first copied
// into a zero-bordered per-thread buffer, so every column row is a plain
// (or strided) copy with no per-element bounds test.
void im2col(std::span<const float> image, const Conv2dGeometry& geo,
            std::span<float> columns);
// col2im: scatters gradients from column layout back to image layout
// (accumulating into `image_grad`, which must be pre-sized and may hold
// prior accumulation). Each image element receives its column values in
// (c, kh, kw, y, x) order, added one at a time onto its prior value;
// contributions that fall in the padding are dropped.
void col2im(std::span<const float> columns, const Conv2dGeometry& geo,
            std::span<float> image_grad);

}  // namespace fedca::tensor
