// In-place / into-destination state math must be byte-equivalent to the
// allocating versions it replaces on the round hot path, and the reuse
// variants must actually reuse storage.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "nn/models.hpp"
#include "nn/state.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace fedca::nn {
namespace {

Tensor random_tensor(tensor::Shape shape, util::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return t;
}

ModelState random_state(util::Rng& rng) {
  ModelState state;
  state.names = {"w0", "b0", "w1"};
  state.tensors.push_back(random_tensor({16, 8}, rng));
  state.tensors.push_back(random_tensor({16}, rng));
  state.tensors.push_back(random_tensor({4, 16}, rng));
  return state;
}

void expect_bit_identical(const ModelState& a, const ModelState& b) {
  ASSERT_EQ(a.names, b.names);
  ASSERT_EQ(a.tensors.size(), b.tensors.size());
  for (std::size_t l = 0; l < a.tensors.size(); ++l) {
    ASSERT_EQ(a.tensors[l].numel(), b.tensors[l].numel());
    ASSERT_EQ(std::memcmp(a.tensors[l].raw(), b.tensors[l].raw(),
                          a.tensors[l].numel() * sizeof(float)),
              0)
        << "layer " << l;
  }
}

TEST(StateInplace, SubInplaceMatchesAllocatingSub) {
  util::Rng rng(12);
  const ModelState a = random_state(rng);
  const ModelState b = random_state(rng);
  const ModelState expected = state_sub(a, b);

  ModelState mutated = a;
  const float* data0 = mutated.tensors[0].raw();
  state_sub_inplace(mutated, b);
  EXPECT_EQ(mutated.tensors[0].raw(), data0);
  expect_bit_identical(expected, mutated);
}

TEST(StateInplace, SubVariantsRejectLayoutMismatch) {
  util::Rng rng(13);
  ModelState a = random_state(rng);
  ModelState b = random_state(rng);
  b.tensors.back() = random_tensor({2, 2}, rng);
  EXPECT_THROW(state_sub(a, b), std::invalid_argument);
  EXPECT_THROW(state_sub_inplace(a, b), std::invalid_argument);
}

TEST(StateInplace, CaptureIntoMatchesCaptureAndReusesStorage) {
  util::Rng rng(21);
  Classifier model = build_model(ModelKind::kCnn, rng);
  const ModelState expected = capture_state(model.backbone());

  ModelState out;
  capture_state_into(model.parameters(), out);
  expect_bit_identical(expected, out);

  // Re-capture after a parameter change: storage reused, values fresh.
  const float* data0 = out.tensors[0].raw();
  model.parameters()[0]->value[0] += 1.0f;
  capture_state_into(model.parameters(), out);
  EXPECT_EQ(out.tensors[0].raw(), data0);
  expect_bit_identical(capture_state(model.backbone()), out);
}

TEST(StateInplace, LoadStateFromFlatParamsMatchesModuleWalk) {
  util::Rng rng(22);
  Classifier model = build_model(ModelKind::kCnn, rng);
  ModelState target = model.state();
  for (Tensor& t : target.tensors) {
    for (std::size_t i = 0; i < t.numel(); ++i) t[i] += 0.25f;
  }
  load_state(model.parameters(), target);
  expect_bit_identical(target, capture_state(model.backbone()));
}

TEST(StateInplace, TensorIntoVariantsMatchAllocatingOps) {
  util::Rng rng(31);
  const Tensor a = random_tensor({9, 7}, rng);
  const Tensor b = random_tensor({9, 7}, rng);

  const Tensor sum = tensor::add(a, b);
  const Tensor diff = tensor::sub(a, b);

  Tensor out;
  tensor::add_into(a, b, out);
  ASSERT_EQ(std::memcmp(out.raw(), sum.raw(), sum.numel() * sizeof(float)), 0);
  const float* data = out.raw();
  tensor::sub_into(a, b, out);  // reuses the matching-shape destination
  EXPECT_EQ(out.raw(), data);
  ASSERT_EQ(std::memcmp(out.raw(), diff.raw(), diff.numel() * sizeof(float)), 0);

  Tensor inplace = a;
  tensor::sub_inplace(inplace, b);
  ASSERT_EQ(std::memcmp(inplace.raw(), diff.raw(), diff.numel() * sizeof(float)),
            0);

  Tensor mismatched({3, 3});
  EXPECT_THROW(tensor::sub_inplace(mismatched, b), std::invalid_argument);
}

}  // namespace
}  // namespace fedca::nn
