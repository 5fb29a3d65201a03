// Numerical kernels: blas-lite ops, similarity metrics, gemm variants,
// im2col/col2im round trips.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace fedca {
namespace {

using tensor::Tensor;

Tensor randn(tensor::Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return t;
}

TEST(Ops, AxpyAndCopyAndScale) {
  std::vector<float> x{1, 2, 3};
  std::vector<float> y{10, 20, 30};
  tensor::axpy(2.0f, x, y);
  EXPECT_EQ(y, (std::vector<float>{12, 24, 36}));
  std::vector<float> z(3);
  tensor::copy(x, z);
  EXPECT_EQ(z, x);
  tensor::scale(0.5f, z);
  EXPECT_EQ(z, (std::vector<float>{0.5f, 1.0f, 1.5f}));
}

TEST(Ops, SizeMismatchThrows) {
  std::vector<float> a{1, 2};
  std::vector<float> b{1, 2, 3};
  EXPECT_THROW(tensor::axpy(1.0f, a, b), std::invalid_argument);
  EXPECT_THROW(tensor::dot(a, b), std::invalid_argument);
  EXPECT_THROW(tensor::copy(a, b), std::invalid_argument);
  EXPECT_THROW(tensor::cosine_similarity(a, b), std::invalid_argument);
}

TEST(Ops, DotAndNorms) {
  std::vector<float> x{3, 4};
  EXPECT_DOUBLE_EQ(tensor::dot(x, x), 25.0);
  EXPECT_DOUBLE_EQ(tensor::l2_norm(x), 5.0);
  EXPECT_DOUBLE_EQ(tensor::l1_norm(std::vector<float>{-1, 2, -3}), 6.0);
}

TEST(Ops, CosineSimilarityCases) {
  std::vector<float> x{1, 0};
  std::vector<float> y{0, 1};
  std::vector<float> nx{-1, 0};
  std::vector<float> zero{0, 0};
  EXPECT_DOUBLE_EQ(tensor::cosine_similarity(x, x), 1.0);
  EXPECT_DOUBLE_EQ(tensor::cosine_similarity(x, y), 0.0);
  EXPECT_DOUBLE_EQ(tensor::cosine_similarity(x, nx), -1.0);
  // Zero-vector convention: similarity 0 (never "converged").
  EXPECT_DOUBLE_EQ(tensor::cosine_similarity(x, zero), 0.0);
  EXPECT_DOUBLE_EQ(tensor::cosine_similarity(zero, zero), 0.0);
}

TEST(Ops, MagnitudeSimilarityCases) {
  std::vector<float> x{3, 4};        // norm 5
  std::vector<float> y{0.6f, 0.8f};  // norm 1
  std::vector<float> zero{0, 0};
  EXPECT_NEAR(tensor::magnitude_similarity(x, y), 0.2, 1e-6);
  EXPECT_NEAR(tensor::magnitude_similarity(y, x), 0.2, 1e-6);  // symmetric
  EXPECT_DOUBLE_EQ(tensor::magnitude_similarity(x, x), 1.0);
  EXPECT_DOUBLE_EQ(tensor::magnitude_similarity(zero, zero), 1.0);
  EXPECT_DOUBLE_EQ(tensor::magnitude_similarity(x, zero), 0.0);
}

TEST(Ops, AddSubAddScaled) {
  Tensor a({2}, std::vector<float>{1, 2});
  Tensor b({2}, std::vector<float>{10, 20});
  Tensor s = tensor::add(a, b);
  EXPECT_EQ(s[1], 22.0f);
  Tensor d = tensor::sub(b, a);
  EXPECT_EQ(d[0], 9.0f);
  tensor::add_scaled(a, 0.5f, b);
  EXPECT_EQ(a[1], 12.0f);
  Tensor wrong({3});
  EXPECT_THROW(tensor::add(a, wrong), std::invalid_argument);
  EXPECT_THROW(tensor::sub(a, wrong), std::invalid_argument);
  EXPECT_THROW(tensor::add_scaled(a, 1.0f, wrong), std::invalid_argument);
}

// Reference O(n^3) gemm for cross-checking all variants.
Tensor ref_gemm(const Tensor& a, bool ta, const Tensor& b, bool tb) {
  const std::size_t m = ta ? a.dim(1) : a.dim(0);
  const std::size_t k = ta ? a.dim(0) : a.dim(1);
  const std::size_t n = tb ? b.dim(0) : b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = ta ? a.at(kk, i) : a.at(i, kk);
        const float bv = tb ? b.at(j, kk) : b.at(kk, j);
        acc += static_cast<double>(av) * bv;
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

void expect_tensors_near(const Tensor& a, const Tensor& b, float tol = 1e-4f) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.numel(); ++i) {
    ASSERT_NEAR(a[i], b[i], tol) << "index " << i;
  }
}

struct GemmDims {
  std::size_t m, k, n;
};

class GemmTest : public ::testing::TestWithParam<GemmDims> {};

TEST_P(GemmTest, MatchesReference) {
  const auto [m, k, n] = GetParam();
  const Tensor a = randn({m, k}, 100 + m);
  const Tensor b = randn({k, n}, 200 + n);
  Tensor c({m, n});
  tensor::gemm(a, b, c);
  expect_tensors_near(c, ref_gemm(a, false, b, false));
}

TEST_P(GemmTest, NtMatchesReference) {
  const auto [m, k, n] = GetParam();
  const Tensor a = randn({m, k}, 300 + m);
  const Tensor b = randn({n, k}, 400 + n);
  Tensor c({m, n});
  tensor::gemm_nt(a, b, c);
  expect_tensors_near(c, ref_gemm(a, false, b, true));
}

TEST_P(GemmTest, TnMatchesReference) {
  const auto [m, k, n] = GetParam();
  const Tensor a = randn({m, k}, 500 + m);
  const Tensor b = randn({m, n}, 600 + n);
  Tensor c({k, n});
  tensor::gemm_tn(a, b, c);
  expect_tensors_near(c, ref_gemm(a, true, b, false));
}

INSTANTIATE_TEST_SUITE_P(Sizes, GemmTest,
                         ::testing::Values(GemmDims{1, 1, 1}, GemmDims{2, 3, 4},
                                           GemmDims{5, 5, 5}, GemmDims{7, 2, 9},
                                           GemmDims{16, 8, 3}));

TEST(Gemm, ShapeValidation) {
  Tensor a({2, 3});
  Tensor b({4, 5});
  Tensor c({2, 5});
  EXPECT_THROW(tensor::gemm(a, b, c), std::invalid_argument);
  Tensor not_matrix({2, 3, 4});
  EXPECT_THROW(tensor::gemm(not_matrix, b, c), std::invalid_argument);
}

TEST(Im2col, IdentityKernelReproducesImage) {
  // 1x1 kernel, stride 1, no pad: columns == image.
  tensor::Conv2dGeometry geo{1, 3, 3, 1, 1, 1, 0};
  std::vector<float> image{1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> cols(9);
  tensor::im2col(image, geo, cols);
  EXPECT_EQ(cols, image);
}

TEST(Im2col, PaddingReadsZero) {
  tensor::Conv2dGeometry geo{1, 2, 2, 3, 3, 1, 1};
  std::vector<float> image{1, 2, 3, 4};
  std::vector<float> cols(3 * 3 * 2 * 2);
  tensor::im2col(image, geo, cols);
  // First row of columns corresponds to kernel position (0,0): top-left
  // output pixel reads image[-1,-1] -> 0.
  EXPECT_EQ(cols[0], 0.0f);
  // Kernel center (kh=1, kw=1) row reproduces the image.
  const std::size_t center_row = (0 * 3 + 1) * 3 + 1;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cols[center_row * 4 + i], image[i]);
  }
}

TEST(Im2col, SizeValidation) {
  tensor::Conv2dGeometry geo{1, 3, 3, 2, 2, 1, 0};
  std::vector<float> image(8);  // wrong: needs 9
  std::vector<float> cols(2 * 2 * 2 * 2);
  EXPECT_THROW(tensor::im2col(image, geo, cols), std::invalid_argument);
  std::vector<float> image9(9);
  std::vector<float> wrong_cols(5);
  EXPECT_THROW(tensor::im2col(image9, geo, wrong_cols), std::invalid_argument);
}

// col2im(im2col(x)) multiplies each pixel by the number of windows it
// appears in; verify against a direct count.
TEST(Im2col, Col2imAccumulatesWindowCounts) {
  tensor::Conv2dGeometry geo{1, 4, 4, 3, 3, 1, 1};
  std::vector<float> image(16, 1.0f);
  const std::size_t oh = geo.out_h(), ow = geo.out_w();
  std::vector<float> cols(geo.kernel_h * geo.kernel_w * oh * ow);
  tensor::im2col(image, geo, cols);
  std::vector<float> back(16, 0.0f);
  tensor::col2im(cols, geo, back);
  // Count appearances directly.
  std::vector<float> expected(16, 0.0f);
  for (std::size_t kh = 0; kh < 3; ++kh) {
    for (std::size_t kw = 0; kw < 3; ++kw) {
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t x = 0; x < ow; ++x) {
          const long iy = static_cast<long>(y + kh) - 1;
          const long ix = static_cast<long>(x + kw) - 1;
          if (iy >= 0 && iy < 4 && ix >= 0 && ix < 4) {
            expected[static_cast<std::size_t>(iy) * 4 + static_cast<std::size_t>(ix)] += 1.0f;
          }
        }
      }
    }
  }
  EXPECT_EQ(back, expected);
}

// Per-element reference for the layout kernels: a bounds test on every
// column element, padding read as zero / scattered nowhere.
void im2col_oracle(const std::vector<float>& image, const tensor::Conv2dGeometry& geo,
                   std::vector<float>& cols) {
  const long H = static_cast<long>(geo.in_h), W = static_cast<long>(geo.in_w);
  const std::size_t oh = geo.out_h(), ow = geo.out_w();
  std::size_t i = 0;
  for (std::size_t c = 0; c < geo.in_channels; ++c) {
    for (std::size_t kh = 0; kh < geo.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < geo.kernel_w; ++kw) {
        for (std::size_t y = 0; y < oh; ++y) {
          for (std::size_t x = 0; x < ow; ++x, ++i) {
            const long iy = static_cast<long>(y * geo.stride + kh) - static_cast<long>(geo.pad);
            const long ix = static_cast<long>(x * geo.stride + kw) - static_cast<long>(geo.pad);
            cols[i] = (iy >= 0 && iy < H && ix >= 0 && ix < W)
                          ? image[(c * geo.in_h + static_cast<std::size_t>(iy)) * geo.in_w +
                                  static_cast<std::size_t>(ix)]
                          : 0.0f;
          }
        }
      }
    }
  }
}

void col2im_oracle(const std::vector<float>& cols, const tensor::Conv2dGeometry& geo,
                   std::vector<float>& image_grad) {
  const long H = static_cast<long>(geo.in_h), W = static_cast<long>(geo.in_w);
  const std::size_t oh = geo.out_h(), ow = geo.out_w();
  std::size_t i = 0;
  for (std::size_t c = 0; c < geo.in_channels; ++c) {
    for (std::size_t kh = 0; kh < geo.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < geo.kernel_w; ++kw) {
        for (std::size_t y = 0; y < oh; ++y) {
          for (std::size_t x = 0; x < ow; ++x, ++i) {
            const long iy = static_cast<long>(y * geo.stride + kh) - static_cast<long>(geo.pad);
            const long ix = static_cast<long>(x * geo.stride + kw) - static_cast<long>(geo.pad);
            if (iy < 0 || iy >= H || ix < 0 || ix >= W) continue;
            image_grad[(c * geo.in_h + static_cast<std::size_t>(iy)) * geo.in_w +
                       static_cast<std::size_t>(ix)] += cols[i];
          }
        }
      }
    }
  }
}

// Random values with signed zeros mixed in, so a changed accumulation
// order (-0 + 0 vs 0 + -0) or a dropped write shows in the bits.
std::vector<float> signed_values(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t pick = rng.uniform_index(8);
    v[i] = pick == 0 ? -0.0f : pick == 1 ? 0.0f : static_cast<float>(rng.normal(0.0, 1.0));
  }
  return v;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Every geometry the sweep checks: pad 0..k-1, stride 1..3, kernel 1/3/5,
// C 1..6 on non-square images, plus the models' own conv layers.
std::vector<tensor::Conv2dGeometry> layout_geometries() {
  std::vector<tensor::Conv2dGeometry> geos = {
      {3, 16, 16, 5, 5, 1, 2},   // LeNet conv1
      {6, 8, 8, 5, 5, 1, 2},     // LeNet conv2
      {3, 16, 16, 3, 3, 1, 1},   // WRN stem
      {8, 16, 16, 3, 3, 2, 1},   // WRN strided block conv
      {8, 16, 16, 1, 1, 2, 0},   // WRN projection shortcut
      {16, 8, 8, 3, 3, 1, 1},    // WRN block conv
  };
  const std::size_t sizes[][2] = {{5, 7}, {9, 6}, {11, 11}};
  for (std::size_t c = 1; c <= 6; ++c) {
    for (std::size_t k : {1u, 3u, 5u}) {
      for (std::size_t pad = 0; pad < k || pad == 0; ++pad) {
        for (std::size_t stride = 1; stride <= 3; ++stride) {
          for (const auto& hw : sizes) geos.push_back({c, hw[0], hw[1], k, k, stride, pad});
        }
      }
    }
  }
  return geos;
}

std::string describe(const tensor::Conv2dGeometry& g) {
  return "C" + std::to_string(g.in_channels) + " " + std::to_string(g.in_h) + "x" +
         std::to_string(g.in_w) + " k" + std::to_string(g.kernel_h) + " s" +
         std::to_string(g.stride) + " p" + std::to_string(g.pad);
}

TEST(Im2col, BitIdenticalToPerElementOracle) {
  std::uint64_t seed = 1;
  for (const auto& geo : layout_geometries()) {
    const std::size_t cols_n =
        geo.in_channels * geo.kernel_h * geo.kernel_w * geo.out_h() * geo.out_w();
    const auto image = signed_values(geo.in_channels * geo.in_h * geo.in_w, seed++);
    // Start both outputs from garbage: every element must be written.
    std::vector<float> got(cols_n, 7.0f), want(cols_n, -7.0f);
    // A col2im first leaves non-zero sums in the border of the per-thread
    // scratch that im2col reuses: its padding must still read as zero.
    std::vector<float> sink(image.size());
    tensor::col2im(signed_values(cols_n, seed++), geo, sink);
    tensor::im2col(image, geo, got);
    im2col_oracle(image, geo, want);
    EXPECT_TRUE(same_bits(got, want)) << describe(geo);
  }
}

TEST(Im2col, Col2imBitIdenticalToPerElementOracle) {
  std::uint64_t seed = 1000;
  for (const auto& geo : layout_geometries()) {
    const std::size_t cols_n =
        geo.in_channels * geo.kernel_h * geo.kernel_w * geo.out_h() * geo.out_w();
    const auto cols = signed_values(cols_n, seed++);
    // A non-zero destination: col2im accumulates onto what is there.
    const auto prior = signed_values(geo.in_channels * geo.in_h * geo.in_w, seed++);
    std::vector<float> got = prior, want = prior;
    tensor::col2im(cols, geo, got);
    col2im_oracle(cols, geo, want);
    EXPECT_TRUE(same_bits(got, want)) << describe(geo);
  }
}

// Pins the accumulate contract on signed zeros: -0 + -0 stays -0, and a
// destination's -0 plus a +0 column value becomes +0.
TEST(Im2col, Col2imAccumulatesOntoSignedZeros) {
  tensor::Conv2dGeometry geo{1, 2, 2, 1, 1, 1, 0};
  std::vector<float> cols{-0.0f, 0.0f, -0.0f, 1.0f};
  std::vector<float> grad{-0.0f, -0.0f, 0.0f, 2.0f};
  tensor::col2im(cols, geo, grad);
  EXPECT_TRUE(std::signbit(grad[0]));
  EXPECT_FALSE(std::signbit(grad[1]));
  EXPECT_FALSE(std::signbit(grad[2]));
  EXPECT_EQ(grad[3], 3.0f);
  // Padded: the centre tap of a 3x3 kernel is the only one landing on a 1x1
  // image, so a -0 there keeps the destination's -0; border taps vanish.
  tensor::Conv2dGeometry padded{1, 1, 1, 3, 3, 1, 1};
  std::vector<float> taps(9, 5.0f);
  taps[4] = -0.0f;
  std::vector<float> one{-0.0f};
  tensor::col2im(taps, padded, one);
  EXPECT_TRUE(std::signbit(one[0]));
  EXPECT_EQ(one[0], 0.0f);
}

TEST(Conv2dGeometry, OutputDims) {
  tensor::Conv2dGeometry geo{3, 16, 16, 5, 5, 1, 2};
  EXPECT_EQ(geo.out_h(), 16u);
  EXPECT_EQ(geo.out_w(), 16u);
  tensor::Conv2dGeometry strided{3, 16, 16, 3, 3, 2, 1};
  EXPECT_EQ(strided.out_h(), 8u);
  EXPECT_EQ(strided.out_w(), 8u);
}

}  // namespace
}  // namespace fedca
