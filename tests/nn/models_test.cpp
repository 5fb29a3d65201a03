// Model zoo: shapes, names, metadata, determinism, loss/accuracy helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "util/rng.hpp"

namespace fedca {
namespace {

class ModelZooTest : public ::testing::TestWithParam<nn::ModelKind> {};

TEST_P(ModelZooTest, ForwardProducesLogits) {
  util::Rng rng(1);
  nn::Classifier model = nn::build_model(GetParam(), rng);
  const nn::InputGeometry geo = nn::default_geometry(GetParam());
  nn::Tensor input =
      (GetParam() == nn::ModelKind::kLstm)
          ? nn::Tensor({3, geo.seq_len, geo.features}, 0.1f)
          : nn::Tensor({3, geo.channels, geo.height, geo.width}, 0.1f);
  const nn::Tensor logits = model.forward(input);
  ASSERT_EQ(logits.ndim(), 2u);
  EXPECT_EQ(logits.dim(0), 3u);
  EXPECT_EQ(logits.dim(1), model.info().num_classes);
}

TEST_P(ModelZooTest, InitializationDeterministicInSeed) {
  util::Rng r1(5);
  util::Rng r2(5);
  nn::Classifier a = nn::build_model(GetParam(), r1);
  nn::Classifier b = nn::build_model(GetParam(), r2);
  const nn::ModelState sa = a.state();
  const nn::ModelState sb = b.state();
  ASSERT_TRUE(sa.same_layout(sb));
  for (std::size_t l = 0; l < sa.layer_count(); ++l) {
    for (std::size_t i = 0; i < sa.tensors[l].numel(); ++i) {
      ASSERT_EQ(sa.tensors[l][i], sb.tensors[l][i]);
    }
  }
}

TEST_P(ModelZooTest, MetadataConsistent) {
  util::Rng rng(2);
  nn::Classifier model = nn::build_model(GetParam(), rng);
  const nn::ModelInfo& info = model.info();
  EXPECT_EQ(info.kind, GetParam());
  EXPECT_GT(info.actual_params, 1000u);
  EXPECT_GE(info.simulated_params, info.actual_params);
  EXPECT_GT(info.nominal_iteration_seconds, 0.0);
  // The wire-size scale maps actual params onto the paper-scale bytes.
  EXPECT_NEAR(info.bytes_per_actual_param() * static_cast<double>(info.actual_params),
              info.simulated_model_bytes(), 1e-6);
}

TEST_P(ModelZooTest, GradientsFlowToEveryParameter) {
  util::Rng rng(3);
  nn::Classifier model = nn::build_model(GetParam(), rng);
  const nn::InputGeometry geo = nn::default_geometry(GetParam());
  util::Rng data_rng(17);
  nn::Tensor input = (GetParam() == nn::ModelKind::kLstm)
                         ? nn::Tensor({4, geo.seq_len, geo.features})
                         : nn::Tensor({4, geo.channels, geo.height, geo.width});
  for (std::size_t i = 0; i < input.numel(); ++i) {
    input[i] = static_cast<float>(data_rng.normal(0.0, 1.0));
  }
  const std::vector<int> labels{0, 1, 2, 3};
  const double loss = model.compute_gradients(input, labels);
  EXPECT_GT(loss, 0.0);
  for (nn::Parameter* p : model.parameters()) {
    double norm = 0.0;
    for (std::size_t i = 0; i < p->grad.numel(); ++i) {
      norm += std::abs(static_cast<double>(p->grad[i]));
    }
    EXPECT_GT(norm, 0.0) << "no gradient reached " << p->name;
  }
}

// A Classifier's first layer skips its input gradient (the gradient of
// data, which nobody reads). The parameter gradients must be bit-identical
// to a pass that computes it, and only the skipping backbone may return an
// empty input gradient.
TEST_P(ModelZooTest, SkippedInputGradientKeepsParameterGradientsBitIdentical) {
  util::Rng rng(9);
  nn::Classifier skipping = nn::build_model(GetParam(), rng);
  std::unique_ptr<nn::Classifier> full = skipping.clone();
  full->backbone().set_input_grad_needed(true);
  const nn::InputGeometry geo = nn::default_geometry(GetParam());
  util::Rng data_rng(23);
  nn::Tensor input = (GetParam() == nn::ModelKind::kLstm)
                         ? nn::Tensor({5, geo.seq_len, geo.features})
                         : nn::Tensor({5, geo.channels, geo.height, geo.width});
  for (std::size_t i = 0; i < input.numel(); ++i) {
    input[i] = static_cast<float>(data_rng.normal(0.0, 1.0));
  }
  const std::vector<int> labels{0, 1, 2, 3, 4};
  const double loss_skipping = skipping.compute_gradients(input, labels);
  const double loss_full = full->compute_gradients(input, labels);
  EXPECT_EQ(loss_skipping, loss_full);
  const std::vector<nn::Parameter*>& a = skipping.parameters();
  const std::vector<nn::Parameter*>& b = full->parameters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t l = 0; l < a.size(); ++l) {
    ASSERT_EQ(a[l]->grad.numel(), b[l]->grad.numel());
    EXPECT_EQ(std::memcmp(a[l]->grad.raw(), b[l]->grad.raw(),
                          a[l]->grad.numel() * sizeof(float)),
              0)
        << a[l]->name;
  }

  const nn::Tensor grad_logits({5, skipping.info().num_classes}, 1.0f);
  skipping.backbone().forward(input);
  EXPECT_EQ(skipping.backbone().backward(grad_logits).numel(), 0u);
  full->backbone().forward(input);
  EXPECT_TRUE(full->backbone().backward(grad_logits).same_shape(input));
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelZooTest,
                         ::testing::Values(nn::ModelKind::kCnn, nn::ModelKind::kLstm,
                                           nn::ModelKind::kWrn));

TEST(ModelZoo, ParseModelKind) {
  EXPECT_EQ(nn::parse_model_kind("cnn"), nn::ModelKind::kCnn);
  EXPECT_EQ(nn::parse_model_kind("LeNet5"), nn::ModelKind::kCnn);
  EXPECT_EQ(nn::parse_model_kind("LSTM"), nn::ModelKind::kLstm);
  EXPECT_EQ(nn::parse_model_kind("wrn"), nn::ModelKind::kWrn);
  EXPECT_EQ(nn::parse_model_kind("WideResNet"), nn::ModelKind::kWrn);
  EXPECT_THROW(nn::parse_model_kind("vit"), std::invalid_argument);
}

TEST(ModelZoo, KindNames) {
  EXPECT_EQ(nn::model_kind_name(nn::ModelKind::kCnn), "CNN");
  EXPECT_EQ(nn::model_kind_name(nn::ModelKind::kLstm), "LSTM");
  EXPECT_EQ(nn::model_kind_name(nn::ModelKind::kWrn), "WRN");
}

TEST(ModelZoo, PaperScaleWireSizes) {
  util::Rng rng(4);
  // Paper Sec. 5.2: 60K / 50K / 36M parameters; WRN model size 139.4 MB
  // (at float32 the paper's 36M params are ~144 MB on the wire; the quoted
  // 139.4 MiB matches 36.5M * 4 / 2^20 — we check the 4-bytes-per-param
  // convention).
  EXPECT_EQ(nn::build_model(nn::ModelKind::kCnn, rng).info().simulated_params, 60'000u);
  EXPECT_EQ(nn::build_model(nn::ModelKind::kLstm, rng).info().simulated_params, 50'000u);
  EXPECT_EQ(nn::build_model(nn::ModelKind::kWrn, rng).info().simulated_params, 36'000'000u);
}

TEST(ModelZoo, CnnLayerNamesMatchPaperFigures) {
  util::Rng rng(5);
  nn::Classifier model = nn::build_model(nn::ModelKind::kCnn, rng);
  nn::ModelState s = model.state();
  EXPECT_NO_THROW(s.layer_index("conv2.weight"));  // Fig. 3a
  EXPECT_NO_THROW(s.layer_index("fc2.weight"));    // Fig. 3a
}

TEST(ModelZoo, WrnLayerNamesMatchPaperFigures) {
  util::Rng rng(6);
  nn::Classifier model = nn::build_model(nn::ModelKind::kWrn, rng);
  nn::ModelState s = model.state();
  // Residual-block naming scheme of Fig. 3c ("conv3.0.residual.0.bias").
  EXPECT_NO_THROW(s.layer_index("conv3.0.residual.0.bias"));
  EXPECT_NO_THROW(s.layer_index("conv4.0.residual.3.weight"));
}

TEST(Loss, AccuracyAndArgmax) {
  nn::Tensor logits({3, 4});
  logits.at(0, 2) = 5.0f;
  logits.at(1, 0) = 3.0f;
  logits.at(2, 1) = 1.0f;
  EXPECT_EQ(nn::argmax_rows(logits), (std::vector<int>{2, 0, 1}));
  EXPECT_NEAR(nn::accuracy(logits, {2, 0, 3}), 2.0 / 3.0, 1e-12);
}

TEST(Loss, CrossEntropyValidation) {
  nn::Tensor logits({2, 3});
  EXPECT_THROW(nn::softmax_cross_entropy(logits, {0}), std::invalid_argument);
  EXPECT_THROW(nn::softmax_cross_entropy(logits, {0, 3}), std::invalid_argument);
  EXPECT_THROW(nn::softmax_cross_entropy(logits, {0, -1}), std::invalid_argument);
}

TEST(Loss, UniformLogitsGiveLogC) {
  nn::Tensor logits({2, 5});
  const nn::LossResult r = nn::softmax_cross_entropy(logits, {0, 4});
  EXPECT_NEAR(r.loss, std::log(5.0), 1e-6);
}

TEST(Loss, NumericalStabilityWithHugeLogits) {
  nn::Tensor logits({1, 3});
  logits.at(0, 0) = 1000.0f;
  logits.at(0, 1) = -1000.0f;
  const nn::LossResult r = nn::softmax_cross_entropy(logits, {0});
  EXPECT_NEAR(r.loss, 0.0, 1e-6);
  EXPECT_TRUE(std::isfinite(r.grad_logits[0]));
}

TEST(Classifier, EvaluateRestoresTrainingMode) {
  util::Rng rng(7);
  nn::Classifier model = nn::build_model(nn::ModelKind::kWrn, rng);
  const nn::InputGeometry geo = nn::default_geometry(nn::ModelKind::kWrn);
  nn::Tensor input({2, geo.channels, geo.height, geo.width}, 0.5f);
  const auto eval = model.evaluate(input, {0, 1});
  EXPECT_GE(eval.accuracy, 0.0);
  EXPECT_LE(eval.accuracy, 1.0);
  EXPECT_GT(eval.loss, 0.0);
  // After evaluate, training must proceed in training mode (batch-norm
  // statistics update): compute_gradients must not throw and must produce
  // gradients.
  EXPECT_GT(model.compute_gradients(input, {0, 1}), 0.0);
}

}  // namespace
}  // namespace fedca
