// Worker-count invariance: the parallel compute layer must produce the
// SAME BYTES for 1, 2, and 8 workers — global state, per-client records,
// virtual timing — across many seeds, for the round engine (CNN and the
// batch-norm-carrying WRN) and the async engine.
#include <gtest/gtest.h>

#include <bit>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "core/factory.hpp"
#include "fl/async_engine.hpp"
#include "fl/experiment.hpp"
#include "fl/round_engine.hpp"
#include "fl/scenario.hpp"
#include "fl/scheme.hpp"
#include "tensor/simd/dispatch.hpp"
#include "util/config.hpp"

namespace fedca {
namespace {

const std::size_t kWorkerCounts[] = {1, 2, 8};

// Shared base of every case: scenarios/parallel_base.scn (scenario tier
// only — hermetic from FEDCA_* env). Tests sweep seed/rounds/iterations/
// workers programmatically on top; the scenario pins the invariant
// data/model shape.
fl::ExperimentOptions parallel_base_options() {
  static const fl::Scenario scenario = fl::load_scenario_file(
      std::string(FEDCA_SOURCE_DIR) + "/scenarios/parallel_base.scn");
  return scenario.options;
}

void expect_states_bit_identical(const nn::ModelState& a, const nn::ModelState& b,
                                 const char* what) {
  ASSERT_EQ(a.tensors.size(), b.tensors.size()) << what;
  for (std::size_t l = 0; l < a.tensors.size(); ++l) {
    ASSERT_EQ(a.tensors[l].numel(), b.tensors[l].numel()) << what;
    ASSERT_EQ(std::memcmp(a.tensors[l].raw(), b.tensors[l].raw(),
                          a.tensors[l].numel() * sizeof(float)),
              0)
        << what << ": layer " << l << " differs";
  }
}

struct RoundRunOutput {
  nn::ModelState global;
  std::vector<double> arrivals;
  std::vector<double> losses;
  // Per client, round-major: outcome and the bits of collected_weight.
  std::vector<std::pair<fl::ClientOutcome, std::uint64_t>> collected;
  double end_time = 0.0;
};

RoundRunOutput run_rounds(nn::ModelKind model, std::uint64_t seed,
                          std::size_t workers, std::size_t rounds) {
  fl::ExperimentOptions options = parallel_base_options();
  options.model = model;
  options.max_rounds = rounds;
  options.seed = seed;
  options.worker_threads = workers;
  fl::FedAvgScheme scheme;
  fl::ExperimentSetup setup = fl::make_setup(options, scheme);

  RoundRunOutput out;
  for (std::size_t r = 0; r < rounds; ++r) {
    const fl::RoundRecord record = setup.engine->run_round();
    for (const auto& c : record.clients) {
      out.arrivals.push_back(c.arrival_time);
      out.losses.push_back(c.mean_local_loss);
      out.collected.emplace_back(c.outcome, std::bit_cast<std::uint64_t>(c.collected_weight));
    }
    out.end_time = record.end_time;
  }
  out.global = setup.engine->global_state();
  return out;
}

TEST(ParallelDeterminism, RoundEngineCnnSweepOverSeeds) {
  for (std::uint64_t seed = 100; seed < 110; ++seed) {  // 10 seeds
    const RoundRunOutput base = run_rounds(nn::ModelKind::kCnn, seed, 1, 2);
    for (const std::size_t workers : kWorkerCounts) {
      if (workers == 1) continue;
      const RoundRunOutput got = run_rounds(nn::ModelKind::kCnn, seed, workers, 2);
      expect_states_bit_identical(base.global, got.global, "CNN global");
      ASSERT_EQ(base.arrivals.size(), got.arrivals.size());
      for (std::size_t i = 0; i < base.arrivals.size(); ++i) {
        ASSERT_EQ(base.arrivals[i], got.arrivals[i]) << "seed " << seed;
        ASSERT_EQ(base.losses[i], got.losses[i]) << "seed " << seed;
      }
      // Every client's outcome and aggregation weight, bit for bit, must be
      // schedule-independent: they feed the experiment result and the report.
      ASSERT_TRUE(base.collected == got.collected) << "seed " << seed;
      ASSERT_EQ(base.end_time, got.end_time) << "seed " << seed;
    }
  }
}

// SIMD-tier invariance (tensor/simd dispatch): every kernel tier
// implements the identical per-element association order, so a full
// training run is BYTE-identical between the portable scalar kernels and
// the best vector tier this host supports — at every worker count. This
// is what makes FEDCA_SIMD a pure performance knob (goldens and reports
// never depend on it).
TEST(ParallelDeterminism, SimdTierSweepMatchesScalarAcrossWorkerCounts) {
  namespace simd = tensor::simd;
  const simd::Tier best = simd::active_tier();
  simd::set_tier_for_testing(simd::Tier::kScalar);
  const RoundRunOutput base = run_rounds(nn::ModelKind::kCnn, 4242, 1, 2);
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  if (best != simd::Tier::kScalar) tiers.push_back(best);
  for (const simd::Tier tier : tiers) {
    simd::set_tier_for_testing(tier);
    for (const std::size_t workers : kWorkerCounts) {
      const RoundRunOutput got =
          run_rounds(nn::ModelKind::kCnn, 4242, workers, 2);
      expect_states_bit_identical(base.global, got.global, "tier sweep");
      ASSERT_EQ(base.arrivals, got.arrivals)
          << simd::tier_name(tier) << " x " << workers << " workers";
      ASSERT_EQ(base.losses, got.losses)
          << simd::tier_name(tier) << " x " << workers << " workers";
      ASSERT_TRUE(base.collected == got.collected) << simd::tier_name(tier);
      ASSERT_EQ(base.end_time, got.end_time) << simd::tier_name(tier);
    }
  }
  simd::reset_tier_from_env();
}

// The round records run_experiment keeps carry each client's outcome and
// aggregation weight as the engine decided them; both must be bit-identical
// across worker counts.
TEST(ParallelDeterminism, ExperimentSummaryCollectionStableAcrossWorkers) {
  fl::ExperimentOptions options = parallel_base_options();

  std::vector<std::pair<fl::ClientOutcome, std::uint64_t>> base_collected;
  for (const std::size_t workers : kWorkerCounts) {
    options.worker_threads = workers;
    fl::FedAvgScheme scheme;
    const fl::ExperimentResult result = fl::run_experiment(options, scheme);
    std::vector<std::pair<fl::ClientOutcome, std::uint64_t>> collected;
    for (const fl::RoundRecord& round : result.rounds) {
      for (const fl::ClientRoundResult& c : round.clients) {
        collected.emplace_back(c.outcome, std::bit_cast<std::uint64_t>(c.collected_weight));
      }
    }
    if (workers == kWorkerCounts[0]) {
      base_collected = collected;
      ASSERT_FALSE(base_collected.empty());
    } else {
      ASSERT_TRUE(base_collected == collected) << "workers " << workers;
    }
  }
}

TEST(ParallelDeterminism, RoundEngineWrnBatchNormSweep) {
  // WRN carries batch-norm running stats — the replica path must make their
  // end-of-round value schedule-independent too.
  for (std::uint64_t seed = 7; seed < 10; ++seed) {
    const RoundRunOutput base = run_rounds(nn::ModelKind::kWrn, seed, 1, 2);
    for (const std::size_t workers : kWorkerCounts) {
      if (workers == 1) continue;
      const RoundRunOutput got = run_rounds(nn::ModelKind::kWrn, seed, workers, 2);
      expect_states_bit_identical(base.global, got.global, "WRN global");
      ASSERT_EQ(base.end_time, got.end_time) << "seed " << seed;
    }
  }
}

TEST(ParallelDeterminism, RoundEngineLstmSweep) {
  for (std::uint64_t seed = 55; seed < 58; ++seed) {
    const RoundRunOutput base = run_rounds(nn::ModelKind::kLstm, seed, 1, 1);
    const RoundRunOutput got = run_rounds(nn::ModelKind::kLstm, seed, 8, 1);
    expect_states_bit_identical(base.global, got.global, "LSTM global");
    ASSERT_EQ(base.end_time, got.end_time) << "seed " << seed;
  }
}

TEST(ParallelDeterminism, FedCaSchemeSweep) {
  // The full FedCA scheme exercises policies, eager transmission and
  // retransmission selection from worker threads.
  for (std::uint64_t seed = 300; seed < 303; ++seed) {
    nn::ModelState base;
    std::vector<double> base_bytes;
    for (const std::size_t workers : kWorkerCounts) {
      fl::ExperimentOptions options = parallel_base_options();
      options.local_iterations = 4;
      options.seed = seed;
      options.worker_threads = workers;
      std::unique_ptr<fl::Scheme> scheme =
          core::make_scheme("fedca", util::Config{}, seed);
      fl::ExperimentSetup setup = fl::make_setup(options, *scheme);
      std::vector<double> bytes;
      for (std::size_t r = 0; r < 2; ++r) {
        const fl::RoundRecord record = setup.engine->run_round();
        for (const auto& c : record.clients) bytes.push_back(c.bytes_sent);
      }
      if (workers == 1) {
        base = setup.engine->global_state();
        base_bytes = bytes;
      } else {
        expect_states_bit_identical(base, setup.engine->global_state(), "FedCA");
        ASSERT_EQ(base_bytes, bytes) << "seed " << seed;
      }
    }
  }
}

// ---- Async engine ----

struct AsyncFixture {
  std::unique_ptr<nn::Classifier> model;
  std::unique_ptr<sim::Cluster> cluster;
  std::unique_ptr<fl::AsyncEngine> engine;
};

AsyncFixture make_async(nn::ModelKind kind, std::uint64_t seed,
                        std::size_t workers) {
  AsyncFixture fx;
  util::Rng root(seed);
  util::Rng model_rng = root.fork(1);
  fx.model = std::make_unique<nn::Classifier>(nn::build_model(kind, model_rng));

  data::SyntheticSpec spec;
  spec.noise_stddev = 0.6;
  util::Rng data_rng = root.fork(2);
  data::SyntheticTask task(kind, spec, data_rng);
  util::Rng train_rng = root.fork(3);
  data::Dataset train = task.sample(200, train_rng);

  data::PartitionOptions part;
  part.num_clients = 4;
  part.num_classes = spec.num_classes;
  part.alpha = 0.5;
  util::Rng part_rng = root.fork(5);
  auto shards = data::dirichlet_partition(train, part, part_rng);

  sim::ClusterOptions copts;
  copts.num_clients = 4;
  util::Rng cluster_rng = root.fork(6);
  fx.cluster = std::make_unique<sim::Cluster>(copts, cluster_rng);

  fl::AsyncEngineOptions options;
  options.local_iterations = 3;
  options.batch_size = 8;
  options.optimizer = {0.05, 0.0, 0.0};
  options.worker_threads = workers;
  fx.engine = std::make_unique<fl::AsyncEngine>(fx.model.get(), fx.cluster.get(),
                                                std::move(shards), options,
                                                root.fork(7));
  return fx;
}

TEST(ParallelDeterminism, AsyncEngineSweepOverSeeds) {
  for (std::uint64_t seed = 40; seed < 44; ++seed) {
    AsyncFixture base = make_async(nn::ModelKind::kCnn, seed, 1);
    const auto base_records = base.engine->run_updates(12);
    for (const std::size_t workers : kWorkerCounts) {
      if (workers == 1) continue;
      AsyncFixture got = make_async(nn::ModelKind::kCnn, seed, workers);
      const auto got_records = got.engine->run_updates(12);
      expect_states_bit_identical(base.engine->global_state(),
                                  got.engine->global_state(), "async global");
      ASSERT_EQ(base_records.size(), got_records.size());
      for (std::size_t i = 0; i < base_records.size(); ++i) {
        ASSERT_EQ(base_records[i].client_id, got_records[i].client_id);
        ASSERT_EQ(base_records[i].arrival_time, got_records[i].arrival_time);
        ASSERT_EQ(base_records[i].staleness, got_records[i].staleness);
        ASSERT_EQ(base_records[i].weight, got_records[i].weight);
      }
    }
  }
}

TEST(ParallelDeterminism, AsyncEngineWrnBatchNormSweep) {
  AsyncFixture base = make_async(nn::ModelKind::kWrn, 91, 1);
  const auto base_records = base.engine->run_updates(8);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
    AsyncFixture got = make_async(nn::ModelKind::kWrn, 91, workers);
    const auto got_records = got.engine->run_updates(8);
    expect_states_bit_identical(base.engine->global_state(),
                                got.engine->global_state(), "async WRN");
    ASSERT_EQ(base_records.size(), got_records.size());
  }
}

TEST(ParallelDeterminism, EnvVariableControlsDefaultWorkerCount) {
  // worker_threads = 0 resolves FEDCA_THREADS; the output must not change.
  const RoundRunOutput base = run_rounds(nn::ModelKind::kCnn, 500, 1, 1);
  ::setenv("FEDCA_THREADS", "4", 1);
  const RoundRunOutput got = run_rounds(nn::ModelKind::kCnn, 500, 0, 1);
  ::unsetenv("FEDCA_THREADS");
  expect_states_bit_identical(base.global, got.global, "env-driven");
  ASSERT_EQ(base.end_time, got.end_time);
}

}  // namespace
}  // namespace fedca
