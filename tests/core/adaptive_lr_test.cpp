// Intra-round adaptive learning rate (the Sec. 6 future-work extension).
#include <gtest/gtest.h>

#include "core/factory.hpp"
#include "core/fedca_scheme.hpp"
#include "fl/experiment.hpp"
#include "fl/scenario.hpp"

namespace fedca {
namespace {

// Base geometry lives in scenarios/adaptive_smoke.scn (golden-pinned by
// tools_golden_scenario_adaptive_smoke). Scenario tier only, so the tests
// stay hermetic from FEDCA_* env.
fl::ExperimentOptions tiny() {
  static const fl::Scenario scenario = fl::load_scenario_file(
      std::string(FEDCA_SOURCE_DIR) + "/scenarios/adaptive_smoke.scn");
  return scenario.options;
}

TEST(AdaptiveLr, FactoryBuildsVariant) {
  util::Config config;
  auto scheme = core::make_scheme("fedca_lr", config, 1);
  EXPECT_EQ(scheme->name(), "FedCA+lr");
  auto* fedca = dynamic_cast<core::FedCaScheme*>(scheme.get());
  ASSERT_NE(fedca, nullptr);
  EXPECT_TRUE(fedca->options().adaptive_lr.enabled);
  EXPECT_DOUBLE_EQ(fedca->options().adaptive_lr.decay, 0.5);
}

TEST(AdaptiveLr, FactoryReadsKnobs) {
  util::Config config;
  config.set("fedca_lr_threshold", "0.05");
  config.set("fedca_lr_decay", "0.25");
  auto scheme = core::make_scheme("fedca_lr", config, 1);
  auto* fedca = dynamic_cast<core::FedCaScheme*>(scheme.get());
  ASSERT_NE(fedca, nullptr);
  EXPECT_DOUBLE_EQ(fedca->options().adaptive_lr.benefit_threshold, 0.05);
  EXPECT_DOUBLE_EQ(fedca->options().adaptive_lr.decay, 0.25);
}

TEST(AdaptiveLr, DisabledByDefaultInPlainFedCa) {
  util::Config config;
  auto scheme = core::make_scheme("fedca", config, 1);
  auto* fedca = dynamic_cast<core::FedCaScheme*>(scheme.get());
  ASSERT_NE(fedca, nullptr);
  EXPECT_FALSE(fedca->options().adaptive_lr.enabled);
}

// Engine-level: a policy that always asks for lr decay must shrink the
// updates relative to a no-decay run on the same trajectory start.
class DecayPolicy : public fl::ClientPolicy {
 public:
  fl::IterationDecision after_iteration(const fl::IterationView& view) override {
    fl::IterationDecision d;
    if (view.iteration == 1) d.lr_scale = 1e-6;  // nearly freeze after iter 1
    return d;
  }
};

// Scheme giving every client its own PolicyT.
template <class PolicyT>
class HookScheme : public fl::Scheme {
 public:
  std::string name() const override { return "Hook"; }
  std::unique_ptr<fl::ClientPolicy> make_policy(std::size_t) override {
    return std::make_unique<PolicyT>();
  }
};

TEST(AdaptiveLr, EngineAppliesScaleImmediately) {
  const fl::ExperimentOptions options = tiny();

  fl::FedAvgScheme plain;
  fl::ExperimentSetup base = fl::make_setup(options, plain);
  const nn::ModelState base_start = base.engine->global_state();
  base.engine->run_round();
  const double base_move =
      nn::state_l2_norm(nn::state_sub(base.engine->global_state(), base_start));

  HookScheme<DecayPolicy> scheme;
  fl::ExperimentSetup frozen = fl::make_setup(options, scheme);
  const nn::ModelState start = frozen.engine->global_state();
  frozen.engine->run_round();
  const double frozen_move =
      nn::state_l2_norm(nn::state_sub(frozen.engine->global_state(), start));

  // Freezing the lr after iteration 1 leaves only iteration 1's update
  // (which, with diminishing marginal benefit, is the largest single one —
  // so the drop is clear but far from 1/K).
  EXPECT_LT(frozen_move, 0.75 * base_move);
  EXPECT_GT(frozen_move, 0.0);
}

TEST(AdaptiveLr, RejectsNonPositiveScale) {
  class BadPolicy : public fl::ClientPolicy {
   public:
    fl::IterationDecision after_iteration(const fl::IterationView&) override {
      fl::IterationDecision d;
      d.lr_scale = 0.0;
      return d;
    }
  };
  HookScheme<BadPolicy> scheme;
  const fl::ExperimentOptions options = tiny();
  fl::ExperimentSetup setup = fl::make_setup(options, scheme);
  EXPECT_THROW(setup.engine->run_round(), std::logic_error);
}

TEST(AdaptiveLr, EndToEndRunsAndConverges) {
  util::Config config;
  config.set("fedca_period", "3");
  auto scheme = core::make_scheme("fedca_lr", config, 2);
  fl::ExperimentOptions options = tiny();
  options.max_rounds = 10;
  options.data_spec.noise_stddev = 0.6;
  const fl::ExperimentResult result = fl::run_experiment(options, *scheme);
  EXPECT_EQ(result.rounds.size(), 10u);
  EXPECT_GT(result.final_accuracy, 0.25);
}

}  // namespace
}  // namespace fedca
