// Failure injection and edge cases across the FedCA stack.
#include <gtest/gtest.h>

#include <string>

#include "core/factory.hpp"
#include "core/fedca_scheme.hpp"
#include "fl/experiment.hpp"
#include "fl/scenario.hpp"

namespace fedca {
namespace {

// The historical tiny() setup now lives in scenarios/tiny_edge.scn.
// Scenario tier only — no resolve_options() — so the tests stay hermetic
// from FEDCA_* env; each test's field tweaks are the programmatic tier.
fl::ExperimentOptions tiny() {
  static const fl::Scenario scenario = fl::load_scenario_file(
      std::string(FEDCA_SOURCE_DIR) + "/scenarios/tiny_edge.scn");
  return scenario.options;
}

TEST(EdgeCases, ExtremeDirichletSkewStillRuns) {
  // alpha = 0.01: most clients see essentially one class. The partition
  // floor and the loader's cycling must keep every client trainable.
  fl::FedAvgScheme scheme;
  fl::ExperimentOptions options = tiny();
  options.dirichlet_alpha = 0.01;
  const fl::ExperimentResult result = fl::run_experiment(options, scheme);
  EXPECT_EQ(result.rounds.size(), 6u);
  for (const auto& round : result.rounds) {
    for (const auto& c : round.clients) {
      EXPECT_GT(c.iterations_run, 0u);
    }
  }
}

TEST(EdgeCases, SingleClientFederation) {
  fl::FedAvgScheme scheme;
  fl::ExperimentOptions options = tiny();
  options.num_clients = 1;
  options.collect_fraction = 0.9;
  const fl::ExperimentResult result = fl::run_experiment(options, scheme);
  EXPECT_EQ(result.rounds.size(), 6u);
  for (const auto& round : result.rounds) {
    EXPECT_EQ(round.clients.size(), 1u);
    EXPECT_TRUE(round.clients[0].collected());
  }
}

TEST(EdgeCases, OneLocalIterationRound) {
  // K = 1: curves are a single point (P = 1); FedCA must neither stop
  // early (there is nothing to skip) nor crash.
  core::FedCaOptions fo;
  fo.profiler.period = 2;
  core::FedCaScheme scheme(fo, core::FedCaVariant::kV3, 1);
  fl::ExperimentOptions options = tiny();
  options.local_iterations = 1;
  const fl::ExperimentResult result = fl::run_experiment(options, scheme);
  for (const auto& round : result.rounds) {
    for (const auto& c : round.clients) {
      EXPECT_EQ(c.iterations_run, 1u);
      EXPECT_FALSE(c.early_stopped);
    }
  }
}

TEST(EdgeCases, ExtremeEagerThresholdTransmitsEverythingEarly) {
  // T_e below any possible P: every layer "stabilizes" at iteration 1 of
  // non-anchor rounds (P can be negative early, so 0 would not do).
  core::FedCaOptions fo;
  fo.profiler.period = 2;
  fo.eager.stabilize_threshold = -2.0;
  fo.early_stop.enabled = false;
  core::FedCaScheme scheme(fo, core::FedCaVariant::kV3, 1);
  fl::ExperimentOptions options = tiny();
  const fl::ExperimentResult result = fl::run_experiment(options, scheme);
  util::Rng rng(1);
  const std::size_t layers = nn::build_model(nn::ModelKind::kCnn, rng).state().layer_count();
  for (const auto& round : result.rounds) {
    if (round.round_index % 2 == 0) continue;  // anchors don't optimize
    for (const auto& c : round.clients) {
      EXPECT_EQ(c.eager.size(), layers);
      for (const auto& e : c.eager) EXPECT_EQ(e.iteration, 1u);
    }
  }
}

TEST(EdgeCases, RetransmitThresholdOneRetransmitsAll) {
  // T_r >= 1: cosine < 1 in practice, so every eagerly-sent layer is
  // retransmitted — FedCA degrades to exact FedAvg updates (with extra
  // traffic), never to worse statistics.
  core::FedCaOptions fo;
  fo.profiler.period = 2;
  fo.eager.stabilize_threshold = -2.0;
  fo.eager.retransmit_threshold = 1.1;
  fo.early_stop.enabled = false;
  core::FedCaScheme fedca(fo, core::FedCaVariant::kV3, 1);
  fl::ExperimentOptions options = tiny();
  const fl::ExperimentResult ours = fl::run_experiment(options, fedca);

  fl::FedAvgScheme fedavg;
  const fl::ExperimentResult base = fl::run_experiment(options, fedavg);
  // Statistically identical trajectories -> identical accuracy curves.
  ASSERT_EQ(ours.curve.size(), base.curve.size());
  for (std::size_t i = 0; i < ours.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(ours.curve[i].accuracy, base.curve[i].accuracy) << "round " << i;
  }
}

TEST(EdgeCases, BetaOneStopsAggressively) {
  // Fig. 10a's extreme: large beta discourages pre-deadline computation;
  // clients should stop much earlier than with the default.
  auto run_with_beta = [](double beta) {
    core::FedCaOptions fo;
    fo.profiler.period = 2;
    fo.early_stop.beta = beta;
    fo.eager.enabled = false;
    core::FedCaScheme scheme(fo, core::FedCaVariant::kV1, 1);
    fl::ExperimentOptions options = tiny();
    options.max_rounds = 8;
    const fl::ExperimentResult r = fl::run_experiment(options, scheme);
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& round : r.rounds) {
      for (const auto& c : round.clients) {
        sum += static_cast<double>(c.iterations_run);
        ++n;
      }
    }
    return sum / static_cast<double>(n);
  };
  EXPECT_LT(run_with_beta(1.0), run_with_beta(0.001));
}

TEST(EdgeCases, NoDynamicityIsFasterAndStillDeterministic) {
  fl::FedAvgScheme a;
  fl::ExperimentOptions options = tiny();
  options.cluster.dynamicity.enabled = false;
  const fl::ExperimentResult r1 = fl::run_experiment(options, a);
  fl::FedAvgScheme b;
  const fl::ExperimentResult r2 = fl::run_experiment(options, b);
  EXPECT_DOUBLE_EQ(r1.total_time, r2.total_time);

  fl::FedAvgScheme c;
  fl::ExperimentOptions dyn = tiny();
  dyn.cluster.dynamicity.enabled = true;
  const fl::ExperimentResult r3 = fl::run_experiment(dyn, c);
  // Slowdowns only ever slow devices down.
  EXPECT_GE(r3.total_time, r1.total_time);
}

TEST(EdgeCases, TinyBatchAndDataset) {
  fl::FedAvgScheme scheme;
  fl::ExperimentOptions options = tiny();
  options.batch_size = 1;
  options.train_samples = 60;
  options.max_rounds = 2;
  const fl::ExperimentResult result = fl::run_experiment(options, scheme);
  EXPECT_EQ(result.rounds.size(), 2u);
}

}  // namespace
}  // namespace fedca
