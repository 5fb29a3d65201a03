#include "tensor/ops.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "tensor/simd/dispatch.hpp"
#include "tensor/simd/kernels.hpp"
#include "util/thread_pool.hpp"

namespace fedca::tensor {

namespace {

void require_equal_size(std::span<const float> x, std::span<const float> y,
                        const char* what) {
  if (x.size() != y.size()) {
    throw std::invalid_argument(std::string(what) + ": size mismatch (" +
                                std::to_string(x.size()) + " vs " +
                                std::to_string(y.size()) + ")");
  }
}

// True when the dispatcher routed this process to an x86 vector tier (the
// AVX-512 tier reuses the AVX2 span kernels; only its GEMM microkernel
// widens).
inline bool use_avx2() {
#if defined(__x86_64__) || defined(_M_X64)
  const simd::Tier t = simd::active_tier();
  return t == simd::Tier::kAvx2 || t == simd::Tier::kAvx512;
#else
  return false;
#endif
}

}  // namespace

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  require_equal_size(x, y, "axpy");
  const float* px = x.data();
  float* py = y.data();
  const std::size_t n = x.size();
#if defined(__x86_64__) || defined(_M_X64)
  if (use_avx2()) {
    simd::axpy_avx2(alpha, px, py, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) py[i] = std::fma(alpha, px[i], py[i]);
}

void copy(std::span<const float> x, std::span<float> y) {
  require_equal_size(x, y, "copy");
  std::copy(x.begin(), x.end(), y.begin());
}

void scale(float alpha, std::span<float> y) {
  float* py = y.data();
  const std::size_t n = y.size();
#if defined(__x86_64__) || defined(_M_X64)
  if (use_avx2()) {
    simd::scale_avx2(alpha, py, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) py[i] *= alpha;
}

namespace {

// Lane width for the double-accumulating span reductions. Eight
// independent double lanes map onto one 512-bit (or two 256-bit) vector
// accumulators; the final combine is a fixed halving tree, so the result
// does not depend on the vector width the compiler (or the AVX2 tier)
// picks.
constexpr std::size_t kRedLanes = 8;

double reduce_lanes(double (&acc)[kRedLanes]) {
  for (std::size_t stride = kRedLanes / 2; stride > 0; stride /= 2) {
    for (std::size_t l = 0; l < stride; ++l) acc[l] += acc[l + stride];
  }
  return acc[0];
}

}  // namespace

double dot(std::span<const float> x, std::span<const float> y) {
  require_equal_size(x, y, "dot");
  const float* px = x.data();
  const float* py = y.data();
  const std::size_t n = x.size();
#if defined(__x86_64__) || defined(_M_X64)
  if (use_avx2()) return simd::dot_avx2(px, py, n);
#endif
  double acc[kRedLanes] = {};
  std::size_t i = 0;
  for (; i + kRedLanes <= n; i += kRedLanes) {
    for (std::size_t l = 0; l < kRedLanes; ++l) {
      acc[l] += static_cast<double>(px[i + l]) * static_cast<double>(py[i + l]);
    }
  }
  double total = reduce_lanes(acc);
  for (; i < n; ++i) {
    total += static_cast<double>(px[i]) * static_cast<double>(py[i]);
  }
  return total;
}

double l2_norm(std::span<const float> x) { return std::sqrt(dot(x, x)); }

double l1_norm(std::span<const float> x) {
  const float* px = x.data();
  const std::size_t n = x.size();
#if defined(__x86_64__) || defined(_M_X64)
  if (use_avx2()) return simd::l1_norm_avx2(px, n);
#endif
  double acc[kRedLanes] = {};
  std::size_t i = 0;
  for (; i + kRedLanes <= n; i += kRedLanes) {
    for (std::size_t l = 0; l < kRedLanes; ++l) {
      acc[l] += std::abs(static_cast<double>(px[i + l]));
    }
  }
  double total = reduce_lanes(acc);
  for (; i < n; ++i) total += std::abs(static_cast<double>(px[i]));
  return total;
}

double cosine_similarity(std::span<const float> x, std::span<const float> y) {
  require_equal_size(x, y, "cosine_similarity");
  const double nx = l2_norm(x);
  const double ny = l2_norm(y);
  if (nx == 0.0 || ny == 0.0) return 0.0;
  return dot(x, y) / (nx * ny);
}

double magnitude_similarity(std::span<const float> x, std::span<const float> y) {
  const double nx = l2_norm(x);
  const double ny = l2_norm(y);
  if (nx == 0.0 && ny == 0.0) return 1.0;
  const double lo = std::min(nx, ny);
  const double hi = std::max(nx, ny);
  if (hi == 0.0) return 1.0;
  return lo / hi;
}

void bias_add(std::span<float> out, std::size_t rows, std::span<const float> bias) {
  const std::size_t cols = bias.size();
  if (out.size() != rows * cols) {
    throw std::invalid_argument("bias_add: out size " + std::to_string(out.size()) +
                                " != rows*cols " + std::to_string(rows * cols));
  }
  const float* pb = bias.data();
#if defined(__x86_64__) || defined(_M_X64)
  if (use_avx2()) {
    simd::bias_add_avx2(out.data(), rows, pb, cols);
    return;
  }
#endif
  for (std::size_t r = 0; r < rows; ++r) {
    float* prow = out.data() + r * cols;
    for (std::size_t j = 0; j < cols; ++j) prow[j] += pb[j];
  }
}

void row_sum(std::span<const float> in, std::size_t rows, std::span<float> out) {
  const std::size_t cols = out.size();
  if (in.size() != rows * cols) {
    throw std::invalid_argument("row_sum: in size " + std::to_string(in.size()) +
                                " != rows*cols " + std::to_string(rows * cols));
  }
  float* po = out.data();
#if defined(__x86_64__) || defined(_M_X64)
  if (use_avx2()) {
    simd::row_sum_avx2(in.data(), rows, po, cols);
    return;
  }
#endif
  for (std::size_t r = 0; r < rows; ++r) {
    const float* prow = in.data() + r * cols;
    for (std::size_t j = 0; j < cols; ++j) po[j] += prow[j];
  }
}

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor out;
  add_into(a, b, out);
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  Tensor out;
  sub_into(a, b, out);
  return out;
}

void add_into(const Tensor& a, const Tensor& b, Tensor& out) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument("add: shape mismatch " + shape_to_string(a.shape()) +
                                " vs " + shape_to_string(b.shape()));
  }
  if (!out.same_shape(a)) out = Tensor(a.shape());
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* po = out.raw();
  const std::size_t n = a.numel();
  for (std::size_t i = 0; i < n; ++i) po[i] = pa[i] + pb[i];
}

void sub_into(const Tensor& a, const Tensor& b, Tensor& out) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument("sub: shape mismatch " + shape_to_string(a.shape()) +
                                " vs " + shape_to_string(b.shape()));
  }
  if (!out.same_shape(a)) out = Tensor(a.shape());
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* po = out.raw();
  const std::size_t n = a.numel();
  for (std::size_t i = 0; i < n; ++i) po[i] = pa[i] - pb[i];
}

void sub_inplace(Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument("sub: shape mismatch " + shape_to_string(a.shape()) +
                                " vs " + shape_to_string(b.shape()));
  }
  float* pa = a.raw();
  const float* pb = b.raw();
  const std::size_t n = a.numel();
  for (std::size_t i = 0; i < n; ++i) pa[i] -= pb[i];
}

void add_scaled(Tensor& a, float alpha, const Tensor& b) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument("add_scaled: shape mismatch " +
                                shape_to_string(a.shape()) + " vs " +
                                shape_to_string(b.shape()));
  }
  axpy(alpha, b.data(), a.data());
}

namespace {

void require_matrix(const Tensor& t, const char* name) {
  if (t.ndim() != 2) {
    throw std::invalid_argument(std::string("gemm: ") + name + " must be 2-D, got " +
                                shape_to_string(t.shape()));
  }
}

// ---- Packed GEMM driver -------------------------------------------------
//
// One cache-blocked, panel-packed core serves all three variants
// (plain / B-transposed / A-transposed) at every size: transposition is
// absorbed by the packing routines, so gemm_nt and gemm_tn run the exact
// same microkernel as plain gemm instead of their own strided loops. Even
// tiny products take this route: plain loops over a transposed B are
// serial, latency-bound fma chains, several times slower than the
// microkernel at the models' shapes (e.g. conv1's 6x256x75 weight
// gradient). Blocking: an Mc x Kc block of op(A) and a Kc x Nc block of
// op(B) are repacked into kMr- / kNr-wide zero-padded panels and swept by
// the register-tiled microkernel (portable fma chains or the AVX2 /
// AVX-512 tier, chosen per call by the dispatcher).
//
// Association order: every C element is one fma chain over k ascending,
// carried through C memory between k-blocks. The chain is independent of
// the blocking constants, the packing, the microkernel tier, and the
// thread partition (rows are never split), which is what keeps output
// bit-identical across FEDCA_SIMD tiers and worker counts.
constexpr std::size_t kMc = 96;   // rows of op(A) per packed block
constexpr std::size_t kKc = 256;  // shared-k slice per packed block
constexpr std::size_t kNc = 512;  // columns of op(B) per packed block

static_assert(kMc % simd::kMr == 0, "A block must hold whole row panels");
static_assert(kNc % simd::kNr == 0, "B block must hold whole column panels");

// Packs rows [i0, i0+mb) x k [k0, k0+kb) of op(A) into kMr-wide row
// panels, layout ap[panel][kk * kMr + r], rows past mb zero-padded. The
// transpose branch is hoisted so every inner loop walks one operand
// contiguously.
void pack_a(const float* a, std::size_t as, bool a_trans, std::size_t i0,
            std::size_t mb, std::size_t k0, std::size_t kb, float* ap) {
  for (std::size_t ir = 0; ir < mb; ir += simd::kMr) {
    float* dst = ap + (ir / simd::kMr) * kb * simd::kMr;
    const std::size_t rows = std::min(simd::kMr, mb - ir);
    if (rows < simd::kMr) std::fill(dst, dst + kb * simd::kMr, 0.0f);
    if (a_trans) {
      // op(A)[i, kk] = a[kk * as + i]: a panel row is contiguous in a.
      const float* src = a + (k0)*as + i0 + ir;
      for (std::size_t kk = 0; kk < kb; ++kk, src += as) {
        float* drow = dst + kk * simd::kMr;
        for (std::size_t r = 0; r < rows; ++r) drow[r] = src[r];
      }
    } else {
      // Contiguous reads along each A row, strided writes into the panel.
      for (std::size_t r = 0; r < rows; ++r) {
        const float* src = a + (i0 + ir + r) * as + k0;
        for (std::size_t kk = 0; kk < kb; ++kk) {
          dst[kk * simd::kMr + r] = src[kk];
        }
      }
    }
  }
}

// Packs k [k0, k0+kb) x columns [j0, j0+nb) of op(B) into kNr-wide column
// panels, layout bp[panel][kk * kNr + j], columns past nb zero-padded.
void pack_b(const float* b, std::size_t bs, bool b_trans, std::size_t k0,
            std::size_t kb, std::size_t j0, std::size_t nb, float* bp) {
  for (std::size_t jr = 0; jr < nb; jr += simd::kNr) {
    float* dst = bp + (jr / simd::kNr) * kb * simd::kNr;
    const std::size_t cols = std::min(simd::kNr, nb - jr);
    if (cols < simd::kNr) std::fill(dst, dst + kb * simd::kNr, 0.0f);
    if (b_trans) {
      // op(B)[kk, j] = b[j * bs + kk]: contiguous reads along each B row,
      // strided writes into the panel.
      for (std::size_t j = 0; j < cols; ++j) {
        const float* src = b + (j0 + jr + j) * bs + k0;
        for (std::size_t kk = 0; kk < kb; ++kk) {
          dst[kk * simd::kNr + j] = src[kk];
        }
      }
    } else {
      // A panel row is a contiguous slice of a B row.
      const float* src = b + k0 * bs + j0 + jr;
      for (std::size_t kk = 0; kk < kb; ++kk, src += bs) {
        float* drow = dst + kk * simd::kNr;
        for (std::size_t j = 0; j < cols; ++j) drow[j] = src[j];
      }
    }
  }
}

// Per-thread packing scratch, held for the thread's lifetime: a per-call
// buffer would be a fresh zero-initializing allocation, which costs more
// than the microkernel work at hot sizes. Each buffer grows to the largest
// panels a call on this thread has needed (at most one full block) and
// never shrinks, so GEMM has no steady-state heap traffic and a thread that
// only runs small products holds only small panels.
struct GemmScratch {
  std::vector<float> ap;
  std::vector<float> bp;
};

std::size_t round_up(std::size_t n, std::size_t multiple) {
  return (n + multiple - 1) / multiple * multiple;
}

// C rows [i0, i1) of C(MxN) = op(A)(MxK) * op(B)(KxN) through the packed
// blocking. Each row's chains are computed entirely by the calling thread,
// which packs its own panels (duplicated B packing across threads is the
// price of bit-identical row partitioning).
void gemm_packed(std::size_t i0, std::size_t i1, std::size_t K, std::size_t N,
                 const float* a, std::size_t as, bool a_trans, const float* b,
                 std::size_t bs, bool b_trans, float* c) {
#if defined(__x86_64__) || defined(_M_X64)
  const simd::Tier tier = simd::active_tier();
  const simd::MicroKernel kernel =
      tier == simd::Tier::kAvx512 ? simd::gemm_microkernel_avx512
      : tier == simd::Tier::kAvx2 ? simd::gemm_microkernel_avx2
                                  : simd::microkernel_generic;
#else
  const simd::MicroKernel kernel = simd::microkernel_generic;
#endif
  thread_local GemmScratch scratch;
  std::vector<float>& ap = scratch.ap;
  std::vector<float>& bp = scratch.bp;
  const std::size_t kb_max = std::min(kKc, K);
  const std::size_t ap_need = round_up(std::min(kMc, i1 - i0), simd::kMr) * kb_max;
  const std::size_t bp_need = round_up(std::min(kNc, N), simd::kNr) * kb_max;
  if (ap.size() < ap_need) ap.resize(ap_need);
  if (bp.size() < bp_need) bp.resize(bp_need);
  for (std::size_t jc = 0; jc < N; jc += kNc) {
    const std::size_t nb = std::min(kNc, N - jc);
    for (std::size_t kc = 0; kc < K; kc += kKc) {
      const std::size_t kb = std::min(kKc, K - kc);
      const bool first = kc == 0;
      pack_b(b, bs, b_trans, kc, kb, jc, nb, bp.data());
      for (std::size_t ic = i0; ic < i1; ic += kMc) {
        const std::size_t mb = std::min(kMc, i1 - ic);
        pack_a(a, as, a_trans, ic, mb, kc, kb, ap.data());
        for (std::size_t ir = 0; ir < mb; ir += simd::kMr) {
          const std::size_t mr_eff = std::min(simd::kMr, mb - ir);
          const float* apanel = ap.data() + (ir / simd::kMr) * kb * simd::kMr;
          for (std::size_t jr = 0; jr < nb; jr += simd::kNr) {
            const std::size_t nr_eff = std::min(simd::kNr, nb - jr);
            kernel(kb, apanel, bp.data() + (jr / simd::kNr) * kb * simd::kNr,
                   c + (ic + ir) * N + jc + jr, N, mr_eff, nr_eff, first);
          }
        }
      }
    }
  }
}

// Opt-in threading state for large GEMMs (see ops.hpp).
std::atomic<util::ThreadPool*> g_gemm_pool{nullptr};
std::atomic<std::size_t> g_gemm_min_flops{1u << 22};

// Common entry: serial packed, or row-partitioned packed when a pool is
// set and the product is large enough; both compute identical bits.
void gemm_any(std::size_t M, std::size_t K, std::size_t N, const float* a,
              std::size_t as, bool a_trans, const float* b, std::size_t bs,
              bool b_trans, float* c) {
  if (K == 0) {
    std::fill(c, c + M * N, 0.0f);
    return;
  }
  const double elems =
      static_cast<double>(M) * static_cast<double>(K) * static_cast<double>(N);
  util::ThreadPool* pool = g_gemm_pool.load(std::memory_order_acquire);
  if (pool != nullptr && M >= 2 &&
      2.0 * elems >=
          static_cast<double>(g_gemm_min_flops.load(std::memory_order_relaxed))) {
    const std::size_t blocks =
        std::min(M, std::max<std::size_t>(1, pool->worker_count()));
    pool->parallel_for(blocks, [&](std::size_t blk) {
      const std::size_t i0 = M * blk / blocks;
      const std::size_t i1 = M * (blk + 1) / blocks;
      gemm_packed(i0, i1, K, N, a, as, a_trans, b, bs, b_trans, c);
    });
    return;
  }
  gemm_packed(0, M, K, N, a, as, a_trans, b, bs, b_trans, c);
}

}  // namespace

void set_gemm_threading(util::ThreadPool* pool, std::size_t min_flops) {
  g_gemm_min_flops.store(min_flops, std::memory_order_relaxed);
  g_gemm_pool.store(pool, std::memory_order_release);
}

void gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
          const float* b, float* c) {
  gemm_any(m, k, n, a, /*as=*/k, /*a_trans=*/false, b, /*bs=*/n,
           /*b_trans=*/false, c);
}

void gemm(const Tensor& a, const Tensor& b, Tensor& c) {
  require_matrix(a, "A");
  require_matrix(b, "B");
  require_matrix(c, "C");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k || c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument("gemm: incompatible shapes A" + shape_to_string(a.shape()) +
                                " B" + shape_to_string(b.shape()) + " C" +
                                shape_to_string(c.shape()));
  }
  gemm(m, k, n, a.raw(), b.raw(), c.raw());
}

void gemm_nt(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c) {
  // B is stored n x k; packing reads it transposed.
  gemm_any(m, k, n, a, /*as=*/k, /*a_trans=*/false, b, /*bs=*/k,
           /*b_trans=*/true, c);
}

void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c) {
  require_matrix(a, "A");
  require_matrix(b, "B");
  require_matrix(c, "C");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (b.dim(1) != k || c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument("gemm_nt: incompatible shapes A" +
                                shape_to_string(a.shape()) + " B" +
                                shape_to_string(b.shape()) + " C" +
                                shape_to_string(c.shape()));
  }
  gemm_nt(m, k, n, a.raw(), b.raw(), c.raw());
}

void gemm_tn(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c) {
  // C is k x n and the reduction runs over m: A (stored m x k) is read
  // transposed.
  gemm_any(/*M=*/k, /*K=*/m, /*N=*/n, a, /*as=*/k, /*a_trans=*/true, b,
           /*bs=*/n, /*b_trans=*/false, c);
}

void gemm_tn(const Tensor& a, const Tensor& b, Tensor& c) {
  require_matrix(a, "A");
  require_matrix(b, "B");
  require_matrix(c, "C");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != m || c.dim(0) != k || c.dim(1) != n) {
    throw std::invalid_argument("gemm_tn: incompatible shapes A" +
                                shape_to_string(a.shape()) + " B" +
                                shape_to_string(b.shape()) + " C" +
                                shape_to_string(c.shape()));
  }
  gemm_tn(m, k, n, a.raw(), b.raw(), c.raw());
}

// ---- Int8 affine quantization ------------------------------------------

QuantParams compute_quant_params(std::span<const float> x) {
  float mn = 0.0f;
  float mx = 0.0f;
#if defined(__x86_64__) || defined(_M_X64)
  if (use_avx2()) {
    simd::minmax_avx2(x.data(), x.size(), &mn, &mx);
  } else
#endif
  {
    if (!x.empty()) {
      mn = x[0];
      mx = x[0];
      for (std::size_t i = 1; i < x.size(); ++i) {
        mn = std::min(mn, x[i]);
        mx = std::max(mx, x[i]);
      }
    }
  }
  // Force zero into the representable range so a quantized update can
  // express "no change" exactly — the error-feedback path depends on
  // residuals not being injected into untouched coordinates.
  const float lo = std::min(mn, 0.0f);
  const float hi = std::max(mx, 0.0f);
  QuantParams p;
  p.scale = (hi - lo) / 255.0f;
  if (!(p.scale > 0.0f)) {
    // All-zero (or degenerate) input: any scale represents it; pick 1.
    p.scale = 1.0f;
  }
  const auto zp = static_cast<std::int32_t>(std::lrintf(-128.0f - lo / p.scale));
  p.zero_point = std::clamp(zp, -128, 127);
  return p;
}

void quantize_int8(std::span<const float> x, const QuantParams& p,
                   std::span<std::int8_t> q) {
  if (x.size() != q.size()) {
    throw std::invalid_argument("quantize_int8: size mismatch (" +
                                std::to_string(x.size()) + " vs " +
                                std::to_string(q.size()) + ")");
  }
  const float inv_scale = 1.0f / p.scale;
#if defined(__x86_64__) || defined(_M_X64)
  if (use_avx2()) {
    simd::quantize_int8_avx2(x.data(), x.size(), inv_scale, p.zero_point,
                             q.data());
    return;
  }
#endif
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto r = static_cast<std::int32_t>(std::lrintf(x[i] * inv_scale)) +
                   p.zero_point;
    q[i] = static_cast<std::int8_t>(std::clamp(r, -128, 127));
  }
}

void dequantize_int8(std::span<const std::int8_t> q, const QuantParams& p,
                     std::span<float> out) {
  if (q.size() != out.size()) {
    throw std::invalid_argument("dequantize_int8: size mismatch (" +
                                std::to_string(q.size()) + " vs " +
                                std::to_string(out.size()) + ")");
  }
#if defined(__x86_64__) || defined(_M_X64)
  if (use_avx2()) {
    simd::dequantize_int8_avx2(q.data(), q.size(), p.scale, p.zero_point,
                               out.data());
    return;
  }
#endif
  for (std::size_t i = 0; i < q.size(); ++i) {
    out[i] = p.scale *
             static_cast<float>(static_cast<std::int32_t>(q[i]) - p.zero_point);
  }
}

void fake_quantize_int8(std::span<float> x, const QuantParams& p) {
  const float inv_scale = 1.0f / p.scale;
#if defined(__x86_64__) || defined(_M_X64)
  if (use_avx2()) {
    simd::fake_quantize_int8_avx2(x.data(), x.size(), inv_scale, p.scale,
                                  p.zero_point);
    return;
  }
#endif
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto r = static_cast<std::int32_t>(std::lrintf(x[i] * inv_scale)) +
                   p.zero_point;
    const std::int32_t qi = std::clamp(r, -128, 127);
    x[i] = p.scale * static_cast<float>(qi - p.zero_point);
  }
}

// ---- Naive reference kernels (retained pre-optimization code) ----------

namespace ref {

void gemm(const Tensor& a, const Tensor& b, Tensor& c) {
  require_matrix(a, "A");
  require_matrix(b, "B");
  require_matrix(c, "C");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k || c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument("ref::gemm: incompatible shapes");
  }
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = pc + i * n;
    std::fill(crow, crow + n, 0.0f);
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aval = pa[i * k + kk];
      const float* brow = pb + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
    }
  }
}

void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c) {
  require_matrix(a, "A");
  require_matrix(b, "B");
  require_matrix(c, "C");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (b.dim(1) != k || c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument("ref::gemm_nt: incompatible shapes");
  }
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(arow[kk]) * static_cast<double>(brow[kk]);
      }
      crow[j] = static_cast<float>(acc);
    }
  }
}

void gemm_tn(const Tensor& a, const Tensor& b, Tensor& c) {
  require_matrix(a, "A");
  require_matrix(b, "B");
  require_matrix(c, "C");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != m || c.dim(0) != k || c.dim(1) != n) {
    throw std::invalid_argument("ref::gemm_tn: incompatible shapes");
  }
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  std::fill(pc, pc + k * n, 0.0f);
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    const float* brow = pb + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aval = arow[kk];
      float* crow = pc + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
    }
  }
}

}  // namespace ref

namespace {

// Both layout kernels work on the image with its zero padding made explicit:
// C x (H + 2*pad) x (W + 2*pad). Every kernel-window read or write then lands
// inside the buffer, so the copy loops carry no bounds tests.
std::size_t bordered_h(const Conv2dGeometry& geo) { return geo.in_h + 2 * geo.pad; }
std::size_t bordered_w(const Conv2dGeometry& geo) { return geo.in_w + 2 * geo.pad; }

// Per-thread bordered image, grown on demand and never shrunk, so the conv
// hot loop does no steady-state allocation (as GemmScratch).
float* bordered_scratch(const Conv2dGeometry& geo) {
  thread_local std::vector<float> buf;
  const std::size_t need = geo.in_channels * bordered_h(geo) * bordered_w(geo);
  if (buf.size() < need) buf.resize(need);
  return buf.data();
}

// Calls fn(image_offset, bordered_offset) for the start of each of the
// C x H image rows and of the same row inside the bordered image.
template <typename RowFn>
void for_each_interior_row(const Conv2dGeometry& geo, RowFn fn) {
  const std::size_t bh = bordered_h(geo), bw = bordered_w(geo);
  for (std::size_t c = 0; c < geo.in_channels; ++c) {
    for (std::size_t y = 0; y < geo.in_h; ++y) {
      fn((c * geo.in_h + y) * geo.in_w, (c * bh + y + geo.pad) * bw + geo.pad);
    }
  }
}

void check_conv_sizes(std::size_t image_size, std::size_t columns_size,
                      const Conv2dGeometry& geo, const char* who) {
  const std::size_t expected_image = geo.in_channels * geo.in_h * geo.in_w;
  const std::size_t expected_cols =
      geo.in_channels * geo.kernel_h * geo.kernel_w * geo.out_h() * geo.out_w();
  if (image_size != expected_image) {
    throw std::invalid_argument(std::string(who) + ": image size " +
                                std::to_string(image_size) + " != expected " +
                                std::to_string(expected_image));
  }
  if (columns_size != expected_cols) {
    throw std::invalid_argument(std::string(who) + ": columns size " +
                                std::to_string(columns_size) + " != expected " +
                                std::to_string(expected_cols));
  }
}

}  // namespace

void im2col(std::span<const float> image, const Conv2dGeometry& geo,
            std::span<float> columns) {
  check_conv_sizes(image.size(), columns.size(), geo, "im2col");
  const std::size_t oh = geo.out_h(), ow = geo.out_w();
  const std::size_t bh = bordered_h(geo), bw = bordered_w(geo);
  const float* src = image.data();
  if (geo.pad > 0) {
    float* padded = bordered_scratch(geo);
    std::fill(padded, padded + geo.in_channels * bh * bw, 0.0f);
    for_each_interior_row(geo, [&](std::size_t at, std::size_t bat) {
      std::copy(src + at, src + at + geo.in_w, padded + bat);
    });
    src = padded;
  }
  float* out = columns.data();
  for (std::size_t c = 0; c < geo.in_channels; ++c) {
    for (std::size_t kh = 0; kh < geo.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < geo.kernel_w; ++kw) {
        const float* window = src + (c * bh + kh) * bw + kw;
        for (std::size_t y = 0; y < oh; ++y, out += ow) {
          const float* in_row = window + y * geo.stride * bw;
          // Rows are short (ow = 16 or 8 in LeNet): a plain loop the
          // compiler vectorizes inline beats a memcpy call per row.
          if (geo.stride == 1) {
            for (std::size_t x = 0; x < ow; ++x) out[x] = in_row[x];
          } else {
            for (std::size_t x = 0; x < ow; ++x) out[x] = in_row[x * geo.stride];
          }
        }
      }
    }
  }
}

void col2im(std::span<const float> columns, const Conv2dGeometry& geo,
            std::span<float> image_grad) {
  check_conv_sizes(image_grad.size(), columns.size(), geo, "col2im");
  const std::size_t oh = geo.out_h(), ow = geo.out_w();
  const std::size_t bh = bordered_h(geo), bw = bordered_w(geo);
  // Accumulate into a bordered copy of image_grad's current values: every
  // interior element then sees the same += sequence, in the same
  // (c, kh, kw, y, x) order, as a bounds-checked scatter would give it, and
  // the border's sums are dropped.
  float* dst = image_grad.data();
  if (geo.pad > 0) {
    dst = bordered_scratch(geo);
    for_each_interior_row(geo, [&](std::size_t at, std::size_t bat) {
      std::copy(image_grad.data() + at, image_grad.data() + at + geo.in_w, dst + bat);
    });
  }
  const float* in = columns.data();
  for (std::size_t c = 0; c < geo.in_channels; ++c) {
    for (std::size_t kh = 0; kh < geo.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < geo.kernel_w; ++kw) {
        float* window = dst + (c * bh + kh) * bw + kw;
        for (std::size_t y = 0; y < oh; ++y, in += ow) {
          float* out_row = window + y * geo.stride * bw;
          // As in im2col, the unit-stride loop is split out so it vectorizes.
          if (geo.stride == 1) {
            for (std::size_t x = 0; x < ow; ++x) out_row[x] += in[x];
          } else {
            for (std::size_t x = 0; x < ow; ++x) out_row[x * geo.stride] += in[x];
          }
        }
      }
    }
  }
  if (geo.pad > 0) {
    for_each_interior_row(geo, [&](std::size_t at, std::size_t bat) {
      std::copy(dst + bat, dst + bat + geo.in_w, image_grad.data() + at);
    });
  }
}

}  // namespace fedca::tensor
