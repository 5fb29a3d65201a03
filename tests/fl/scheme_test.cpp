// Scheme base behaviour, FedProx optimizer override, FedAda planning.
#include <gtest/gtest.h>

#include "fl/fedada.hpp"
#include "fl/scheme.hpp"

namespace fedca {
namespace {

TEST(Scheme, DefaultPlanUsesNominalIterations) {
  fl::FedAvgScheme scheme;
  const fl::RoundPlan plan = scheme.plan_round(0);
  EXPECT_EQ(plan.deadline, fl::kNoDeadline);
  for (std::size_t c = 0; c < 5; ++c) EXPECT_EQ(scheme.planned_iterations(c, 40), 40u);
}

TEST(Scheme, DefaultPolicyIsNoop) {
  fl::FedAvgScheme scheme;
  fl::ClientPolicy& policy = scheme.client_policy(0);
  fl::IterationView view;
  const fl::IterationDecision d = policy.after_iteration(view);
  EXPECT_FALSE(d.stop);
  EXPECT_TRUE(d.eager_layers.empty());
  EXPECT_TRUE(policy.select_retransmissions(nn::ModelState{}, {}).empty());
}

TEST(FedProx, RaisesProxMu) {
  fl::FedProxScheme scheme(0.02);
  nn::SgdOptions base{0.05, 0.001, 0.0};
  const nn::SgdOptions out = scheme.local_optimizer(base);
  EXPECT_DOUBLE_EQ(out.prox_mu, 0.02);
  EXPECT_DOUBLE_EQ(out.learning_rate, 0.05);
  EXPECT_DOUBLE_EQ(out.weight_decay, 0.001);
}

TEST(FedAvg, DoesNotTouchOptimizer) {
  fl::FedAvgScheme scheme;
  nn::SgdOptions base{0.05, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(scheme.local_optimizer(base).prox_mu, 0.0);
}

fl::RoundRecord fake_round(const std::vector<double>& durations,
                           const std::vector<double>& per_iter_seconds,
                           std::size_t iterations) {
  fl::RoundRecord record;
  record.start_time = 0.0;
  for (std::size_t c = 0; c < durations.size(); ++c) {
    fl::ClientRoundResult r;
    r.client_id = c;
    r.arrival_time = durations[c];
    r.iterations_run = iterations;
    r.compute_seconds = per_iter_seconds[c] * static_cast<double>(iterations);
    record.clients.push_back(std::move(r));
  }
  record.end_time = *std::max_element(durations.begin(), durations.end());
  return record;
}

TEST(FedAda, WarmupRunsFullWorkload) {
  fl::FedAdaScheme scheme;
  const fl::RoundPlan plan = scheme.plan_round(0);
  EXPECT_EQ(plan.deadline, fl::kNoDeadline);
  for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(scheme.planned_iterations(c, 100), 100u);
}

TEST(FedAda, TrimsStragglersAfterObservation) {
  fl::FedAdaScheme scheme;
  // Clients 0-2 fast (0.1 s/iter -> 10 s rounds), client 3 slow (1 s/iter).
  scheme.observe_round(fake_round({10, 10, 10, 100}, {0.1, 0.1, 0.1, 1.0}, 100));
  const fl::RoundPlan plan = scheme.plan_round(1);
  ASSERT_NE(plan.deadline, fl::kNoDeadline);
  // Fast clients keep (nearly) full workloads; the straggler is trimmed.
  EXPECT_EQ(scheme.planned_iterations(0, 100), 100u);
  EXPECT_LT(scheme.planned_iterations(3, 100), 100u);
  EXPECT_GE(scheme.planned_iterations(3, 100), 20u);  // min_fraction floor
}

TEST(FedAda, UnseenClientRunsFullWorkload) {
  fl::FedAdaScheme scheme;
  scheme.observe_round(fake_round({10, 10, 10, 100}, {0.1, 0.1, 0.1, 1.0}, 100));
  ASSERT_NE(scheme.plan_round(1).deadline, fl::kNoDeadline);
  // Client 7 never delivered: no speed estimate, so it keeps K.
  EXPECT_LE(scheme.estimated_iteration_seconds(7), 0.0);
  EXPECT_EQ(scheme.planned_iterations(7, 100), 100u);
}

TEST(FedAda, UniformClusterKeepsFullWorkload) {
  fl::FedAdaScheme scheme;
  scheme.observe_round(fake_round({10, 10, 10}, {0.2, 0.2, 0.2}, 50));
  scheme.plan_round(1);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_GE(scheme.planned_iterations(c, 50), 40u);  // near-full: deadline fits everyone
  }
}

TEST(FedAda, SpeedEstimateIsEwma) {
  fl::FedAdaScheme scheme;
  scheme.observe_round(fake_round({1.0}, {0.1}, 10));
  EXPECT_NEAR(scheme.estimated_iteration_seconds(0), 0.1, 1e-9);
  scheme.observe_round(fake_round({3.0}, {0.3}, 10));
  EXPECT_NEAR(scheme.estimated_iteration_seconds(0), 0.2, 1e-9);  // 0.5 blend
}

TEST(CompressedScheme, ForwardsPlanningAndPoliciesToInner) {
  fl::CompressedScheme scheme(std::make_unique<fl::FedAdaScheme>(), {}, 1);
  scheme.observe_round(fake_round({10, 10, 10, 100}, {0.1, 0.1, 0.1, 1.0}, 100));
  ASSERT_NE(scheme.plan_round(1).deadline, fl::kNoDeadline);
  EXPECT_EQ(scheme.planned_iterations(0, 100), 100u);
  EXPECT_LT(scheme.planned_iterations(3, 100), 100u);  // the inner FedAda trims
}

TEST(FedAda, OptionValidation) {
  fl::FedAdaOptions bad;
  bad.tradeoff = 1.5;
  EXPECT_THROW(fl::FedAdaScheme{bad}, std::invalid_argument);
  fl::FedAdaOptions bad2;
  bad2.min_fraction = 0.0;
  EXPECT_THROW(fl::FedAdaScheme{bad2}, std::invalid_argument);
}

TEST(FedAda, NameIsStable) {
  EXPECT_EQ(fl::FedAdaScheme().name(), "FedAda");
  EXPECT_EQ(fl::FedAvgScheme().name(), "FedAvg");
  EXPECT_EQ(fl::FedProxScheme().name(), "FedProx");
}

}  // namespace
}  // namespace fedca
