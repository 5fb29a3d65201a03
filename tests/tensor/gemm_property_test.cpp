// Property tests for the blocked GEMM kernels against the retained naive
// references (tensor::ref) and, bit for bit, against the fma-chain
// accumulation contract; plus the fused dense-layer helpers and the opt-in
// pool-parallel GEMM path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/simd/dispatch.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fedca::tensor {
namespace {

Tensor random_tensor(Shape shape, util::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return t;
}

// Mixed-accumulator comparison: the optimized kernels accumulate in float
// (fixed order), the references partly in double, so results agree to
// float rounding scaled by the reduction length.
void expect_close(const Tensor& got, const Tensor& want, std::size_t k) {
  ASSERT_EQ(got.numel(), want.numel());
  const double tol = 1e-5 * std::sqrt(static_cast<double>(k) + 1.0);
  for (std::size_t i = 0; i < got.numel(); ++i) {
    const double scale = std::max(1.0, std::abs(static_cast<double>(want[i])));
    ASSERT_NEAR(got[i], want[i], tol * scale) << "element " << i;
  }
}

// Shape grid: every combination of tiny edge sizes and sizes straddling the
// 6 x 16 register tile (simd::kMr rows by simd::kNr columns) and its
// multiples.
const std::size_t kSizes[] = {1, 2, 3, 5, 8, 17, 33, 64};

// The models' own products as (m, k, n) in each variant's raw-pointer
// signature: conv1's forward, weight and input gradients (6 x 75 x 256
// family), conv2's (16 x 150 x 64 family), the LSTM's input projection,
// input gradient and weight gradient (16 x 8 x 384 family), and fc3.
struct Shape3 {
  std::size_t m, k, n;
};
const Shape3 kModelShapes[] = {
    {6, 75, 256},  {6, 256, 75},  {16, 150, 64}, {16, 64, 150},
    {16, 384, 8},  {16, 8, 384},  {16, 84, 10},
};

// Stored operands for one (m, k, n): A is m x k; B is k x n for gemm,
// n x k for gemm_nt and m x n for gemm_tn.
struct Operands {
  std::vector<float> a, b, b_nt, b_tn;
};

Operands random_operands(const Shape3& s, util::Rng& rng) {
  const auto fill = [&rng](std::size_t count) {
    std::vector<float> v(count);
    for (float& x : v) x = static_cast<float>(rng.normal(0.0, 1.0));
    return v;
  };
  return {fill(s.m * s.k), fill(s.k * s.n), fill(s.n * s.k), fill(s.m * s.n)};
}

// The accumulation contract written out as plain loops: every output
// element is acc = fma(a, b, acc) over the reduction index ascending,
// seeded at 0. op_a(i, r) and op_b(r, j) read the stored operands.
template <typename OpA, typename OpB>
std::vector<float> chain(std::size_t rows, std::size_t red, std::size_t cols,
                         OpA op_a, OpB op_b) {
  std::vector<float> c(rows * cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      float acc = 0.0f;
      for (std::size_t r = 0; r < red; ++r) acc = std::fma(op_a(i, r), op_b(r, j), acc);
      c[i * cols + j] = acc;
    }
  }
  return c;
}

// Compares all three variants at (m, k, n) byte for byte against the
// explicit chains, under whatever tier is active.
void expect_chain_bits(const Shape3& s, const Operands& op, const char* tier) {
  const std::size_t m = s.m, k = s.k, n = s.n;
  std::vector<float> c(std::max(m, k) * n);
  const auto check = [&](const char* variant, const std::vector<float>& want) {
    ASSERT_EQ(std::memcmp(c.data(), want.data(), want.size() * sizeof(float)), 0)
        << variant << " " << tier << " " << m << "x" << k << "x" << n;
  };
  gemm(m, k, n, op.a.data(), op.b.data(), c.data());
  check("gemm", chain(m, k, n, [&](std::size_t i, std::size_t r) { return op.a[i * k + r]; },
                      [&](std::size_t r, std::size_t j) { return op.b[r * n + j]; }));
  gemm_nt(m, k, n, op.a.data(), op.b_nt.data(), c.data());
  check("gemm_nt",
        chain(m, k, n, [&](std::size_t i, std::size_t r) { return op.a[i * k + r]; },
              [&](std::size_t r, std::size_t j) { return op.b_nt[j * k + r]; }));
  // C is k x n and the chain runs over the m rows of A and B.
  gemm_tn(m, k, n, op.a.data(), op.b_tn.data(), c.data());
  check("gemm_tn",
        chain(k, m, n, [&](std::size_t i, std::size_t r) { return op.a[r * k + i]; },
              [&](std::size_t r, std::size_t j) { return op.b_tn[r * n + j]; }));
}

TEST(GemmProperty, MatchesNaiveReference) {
  util::Rng rng(0xC0FFEE);
  for (const std::size_t m : kSizes) {
    for (const std::size_t k : kSizes) {
      for (const std::size_t n : kSizes) {
        Tensor a = random_tensor({m, k}, rng);
        Tensor b = random_tensor({k, n}, rng);
        Tensor c({m, n});
        Tensor expect({m, n});
        gemm(a, b, c);
        ref::gemm(a, b, expect);
        expect_close(c, expect, k);
      }
    }
  }
}

TEST(GemmProperty, GemmNtMatchesNaiveReference) {
  util::Rng rng(0xBEEF);
  for (const std::size_t m : kSizes) {
    for (const std::size_t k : kSizes) {
      for (const std::size_t n : kSizes) {
        Tensor a = random_tensor({m, k}, rng);
        Tensor b = random_tensor({n, k}, rng);
        Tensor c({m, n});
        Tensor expect({m, n});
        gemm_nt(a, b, c);
        ref::gemm_nt(a, b, expect);
        expect_close(c, expect, k);
      }
    }
  }
}

TEST(GemmProperty, GemmTnMatchesNaiveReference) {
  util::Rng rng(0xD00D);
  for (const std::size_t m : kSizes) {
    for (const std::size_t k : kSizes) {
      for (const std::size_t n : kSizes) {
        Tensor a = random_tensor({m, k}, rng);
        Tensor b = random_tensor({m, n}, rng);
        Tensor c({k, n});
        Tensor expect({k, n});
        gemm_tn(a, b, c);
        ref::gemm_tn(a, b, expect);
        expect_close(c, expect, m);
      }
    }
  }
}

TEST(GemmProperty, RandomizedNonSquareShapes) {
  util::Rng rng(0x5EED);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t m = 1 + static_cast<std::size_t>(rng.uniform_index(90));
    const std::size_t k = 1 + static_cast<std::size_t>(rng.uniform_index(90));
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_index(90));
    Tensor a = random_tensor({m, k}, rng);
    Tensor b = random_tensor({k, n}, rng);
    Tensor c({m, n});
    Tensor expect({m, n});
    gemm(a, b, c);
    ref::gemm(a, b, expect);
    expect_close(c, expect, k);
  }
}

TEST(GemmProperty, DeterministicAcrossCalls) {
  util::Rng rng(0xABCD);
  Tensor a = random_tensor({37, 53}, rng);
  Tensor b = random_tensor({53, 29}, rng);
  Tensor c1({37, 29});
  Tensor c2({37, 29});
  gemm(a, b, c1);
  gemm(a, b, c2);
  for (std::size_t i = 0; i < c1.numel(); ++i) {
    ASSERT_EQ(c1[i], c2[i]);  // bit-identical, not just close
  }
}

TEST(GemmProperty, ThreadedGemmIsBitIdenticalToSerial) {
  util::Rng rng(0xF00D);
  Tensor a = random_tensor({96, 80}, rng);
  Tensor b = random_tensor({80, 72}, rng);
  Tensor serial({96, 72});
  gemm(a, b, serial);

  util::ThreadPool pool(4);
  set_gemm_threading(&pool, /*min_flops=*/1);  // force the parallel path
  Tensor threaded({96, 72});
  gemm(a, b, threaded);
  set_gemm_threading(nullptr);

  for (std::size_t i = 0; i < serial.numel(); ++i) {
    ASSERT_EQ(serial[i], threaded[i]) << "element " << i;
  }
}

// Dispatch-tier identity: the scalar kernels and every vector tier this
// host supports must produce the SAME BYTES for all three GEMM variants
// across the full edge-size grid — the association-order contract that
// makes FEDCA_SIMD a pure performance knob. Every grid shape runs the
// packed microkernel of the tier under test (there is no tier-independent
// small-problem route).
TEST(GemmProperty, TiersAreBitIdentical) {
  std::vector<simd::Tier> tiers;
  if (simd::avx2_supported()) tiers.push_back(simd::Tier::kAvx2);
  if (simd::avx512_supported()) tiers.push_back(simd::Tier::kAvx512);
  if (tiers.empty()) GTEST_SKIP() << "host has no vector tier";
  util::Rng rng(0x71E5);
  for (const std::size_t m : kSizes) {
    for (const std::size_t k : kSizes) {
      for (const std::size_t n : kSizes) {
        const Tensor a = random_tensor({m, k}, rng);
        const Tensor b = random_tensor({k, n}, rng);
        const Tensor bt = random_tensor({n, k}, rng);
        const Tensor at = random_tensor({k, m}, rng);
        simd::set_tier_for_testing(simd::Tier::kScalar);
        Tensor c0({m, n}), c0_nt({m, n}), c0_tn({m, n});
        gemm(a, b, c0);
        gemm_nt(a, bt, c0_nt);
        gemm_tn(at, b, c0_tn);
        for (const simd::Tier tier : tiers) {
          simd::set_tier_for_testing(tier);
          Tensor c1({m, n}), c1_nt({m, n}), c1_tn({m, n});
          gemm(a, b, c1);
          gemm_nt(a, bt, c1_nt);
          gemm_tn(at, b, c1_tn);
          const std::size_t bytes = m * n * sizeof(float);
          ASSERT_EQ(std::memcmp(c0.raw(), c1.raw(), bytes), 0)
              << "gemm " << simd::tier_name(tier) << " " << m << "x" << k
              << "x" << n;
          ASSERT_EQ(std::memcmp(c0_nt.raw(), c1_nt.raw(), bytes), 0)
              << "gemm_nt " << simd::tier_name(tier) << " " << m << "x" << k
              << "x" << n;
          ASSERT_EQ(std::memcmp(c0_tn.raw(), c1_tn.raw(), bytes), 0)
              << "gemm_tn " << simd::tier_name(tier) << " " << m << "x" << k
              << "x" << n;
        }
      }
    }
  }
  simd::reset_tier_from_env();
}

// The contract the single packed route relies on, bit for bit: every
// element of every variant equals the scalar fma chain, on the whole edge
// grid and at the models' shapes, under the scalar tier and every vector
// tier this host supports.
TEST(GemmProperty, EveryElementIsOneFmaChain) {
  std::vector<simd::Tier> tiers{simd::Tier::kScalar};
  if (simd::avx2_supported()) tiers.push_back(simd::Tier::kAvx2);
  if (simd::avx512_supported()) tiers.push_back(simd::Tier::kAvx512);
  std::vector<Shape3> shapes(std::begin(kModelShapes), std::end(kModelShapes));
  for (const std::size_t m : kSizes) {
    for (const std::size_t k : kSizes) {
      for (const std::size_t n : kSizes) shapes.push_back({m, k, n});
    }
  }
  util::Rng rng(0xC4A1);
  for (const Shape3& s : shapes) {
    const Operands op = random_operands(s, rng);
    for (const simd::Tier tier : tiers) {
      simd::set_tier_for_testing(tier);
      expect_chain_bits(s, op, simd::tier_name(tier));
      if (HasFatalFailure()) break;
    }
    if (HasFatalFailure()) break;
  }
  simd::reset_tier_from_env();
}

TEST(FusedHelpers, BiasAddMatchesManualLoop) {
  util::Rng rng(0x11AA);
  const std::size_t rows = 7, cols = 13;
  Tensor out = random_tensor({rows, cols}, rng);
  Tensor bias = random_tensor({cols}, rng);
  Tensor expect = out;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < cols; ++j) expect[r * cols + j] += bias[j];
  }
  bias_add(out.data(), rows, bias.data());
  for (std::size_t i = 0; i < out.numel(); ++i) ASSERT_EQ(out[i], expect[i]);
}

TEST(FusedHelpers, RowSumAccumulatesColumnSums) {
  util::Rng rng(0x22BB);
  const std::size_t rows = 9, cols = 6;
  Tensor in = random_tensor({rows, cols}, rng);
  Tensor out = random_tensor({cols}, rng);  // pre-existing accumulation
  Tensor expect = out;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < cols; ++j) expect[j] += in[r * cols + j];
  }
  row_sum(in.data(), rows, out.data());
  for (std::size_t j = 0; j < cols; ++j) {
    ASSERT_NEAR(out[j], expect[j], 1e-5 * std::max(1.0f, std::abs(expect[j])));
  }
}

TEST(FusedHelpers, RowSumZeroRowsIsNoOp) {
  Tensor out({4});
  out[0] = 1.0f; out[1] = 2.0f; out[2] = 3.0f; out[3] = 4.0f;
  row_sum(std::span<const float>(), 0, out.data());
  EXPECT_EQ(out[0], 1.0f);
  EXPECT_EQ(out[3], 4.0f);
}

}  // namespace
}  // namespace fedca::tensor
