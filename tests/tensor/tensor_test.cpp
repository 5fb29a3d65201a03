// Tensor construction, access, reshaping, and error handling.
#include <gtest/gtest.h>

#include <utility>

#include "tensor/tensor.hpp"

namespace fedca {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(Shape, NumelAndToString) {
  EXPECT_EQ(tensor::shape_numel({2, 3, 4}), 24u);
  EXPECT_EQ(tensor::shape_numel({}), 0u);
  EXPECT_EQ(tensor::shape_numel({5}), 5u);
  EXPECT_EQ(tensor::shape_to_string({2, 3}), "[2, 3]");
  EXPECT_EQ(tensor::shape_to_string({}), "[]");
}

TEST(Tensor, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.numel(), 0u);
  EXPECT_EQ(t.ndim(), 0u);
}

TEST(Tensor, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6u);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FillConstructorAndFull) {
  Tensor t({4}, 2.5f);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 2.5f);
  Tensor u = Tensor::full({2, 2}, -1.0f);
  EXPECT_EQ(u[3], -1.0f);
}

TEST(Tensor, AdoptDataValidatesSize) {
  EXPECT_NO_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3, 4}));
  EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3}), std::invalid_argument);
}

TEST(Tensor, OfInitializerList) {
  Tensor t = Tensor::of({1.0f, 2.0f, 3.0f});
  ASSERT_EQ(t.shape(), (Shape{3}));
  EXPECT_EQ(t[1], 2.0f);
}

TEST(Tensor, BoundsCheckedAccess) {
  Tensor t({2, 3});
  EXPECT_NO_THROW(t.at(5));
  EXPECT_THROW(t.at(6), std::out_of_range);
  t.at(1, 2) = 7.0f;
  EXPECT_EQ(t.at(1, 2), 7.0f);
  EXPECT_THROW(t.at(2, 0), std::out_of_range);
  EXPECT_THROW(t.at(0, 3), std::out_of_range);
}

TEST(Tensor, At2dRequiresMatrix) {
  Tensor t({6});
  EXPECT_THROW(t.at(0, 0), std::logic_error);
}

TEST(Tensor, DimAccessor) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.dim(0), 2u);
  EXPECT_EQ(t.dim(2), 4u);
  EXPECT_THROW(t.dim(3), std::out_of_range);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.dim(0), 3u);
  EXPECT_EQ(r[4], 5.0f);
  EXPECT_THROW(t.reshaped({4, 2}), std::invalid_argument);
}

TEST(Tensor, FillAndZero) {
  Tensor t({3}, 1.0f);
  t.fill(4.0f);
  EXPECT_EQ(t[2], 4.0f);
  t.zero();
  EXPECT_EQ(t[0], 0.0f);
}

TEST(Tensor, ByteSizeIsFloat32) {
  Tensor t({10, 10});
  EXPECT_EQ(t.byte_size(), 400u);
}

TEST(Tensor, SameShape) {
  EXPECT_TRUE(Tensor({2, 3}).same_shape(Tensor({2, 3})));
  EXPECT_FALSE(Tensor({2, 3}).same_shape(Tensor({3, 2})));
  EXPECT_FALSE(Tensor({6}).same_shape(Tensor({2, 3})));
}

TEST(Tensor, ValueSemantics) {
  Tensor a({2}, 1.0f);
  Tensor b = a;
  b[0] = 9.0f;
  EXPECT_EQ(a[0], 1.0f);  // deep copy
}

TEST(Tensor, CopyAssignReusesCapacity) {
  Tensor src({128});
  for (std::size_t i = 0; i < src.numel(); ++i) src[i] = static_cast<float>(i);
  Tensor dst({128});
  const float* dst_data = dst.raw();
  dst = src;
  EXPECT_EQ(dst.raw(), dst_data) << "same-size copy-assign must not reallocate";
  for (std::size_t i = 0; i < dst.numel(); ++i) {
    ASSERT_EQ(dst[i], static_cast<float>(i));
  }
}

TEST(Tensor, MoveLeavesSourceEmpty) {
  Tensor a({2, 3}, 1.0f);
  const float* data = a.raw();
  Tensor b = std::move(a);
  EXPECT_EQ(b.raw(), data);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(a.shape().empty());
  Tensor c({4}, 2.0f);
  c = std::move(b);
  EXPECT_EQ(c.raw(), data);
  EXPECT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.shape().empty());
}

}  // namespace
}  // namespace fedca
