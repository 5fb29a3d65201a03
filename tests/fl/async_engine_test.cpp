// Asynchronous FL engine: staleness accounting, determinism, convergence.
#include <gtest/gtest.h>

#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "fl/async_engine.hpp"

namespace fedca {
namespace {

struct AsyncFixture {
  std::unique_ptr<nn::Classifier> model;
  std::unique_ptr<sim::Cluster> cluster;
  std::unique_ptr<fl::AsyncEngine> engine;
  data::Dataset test_set;
};

AsyncFixture make_async(std::uint64_t seed, fl::AsyncEngineOptions options,
                        std::size_t clients = 5, double noise = 0.6) {
  AsyncFixture fx;
  util::Rng root(seed);
  util::Rng model_rng = root.fork(1);
  fx.model = std::make_unique<nn::Classifier>(
      nn::build_model(nn::ModelKind::kCnn, model_rng));

  data::SyntheticSpec spec;
  spec.noise_stddev = noise;
  util::Rng data_rng = root.fork(2);
  data::SyntheticTask task(nn::ModelKind::kCnn, spec, data_rng);
  util::Rng train_rng = root.fork(3);
  util::Rng test_rng = root.fork(4);
  data::Dataset train = task.sample(300, train_rng);
  fx.test_set = task.sample(96, test_rng);

  data::PartitionOptions part;
  part.num_clients = clients;
  part.num_classes = spec.num_classes;
  part.alpha = 0.5;
  util::Rng part_rng = root.fork(5);
  auto shards = data::dirichlet_partition(train, part, part_rng);

  sim::ClusterOptions copts;
  copts.num_clients = clients;
  util::Rng cluster_rng = root.fork(6);
  fx.cluster = std::make_unique<sim::Cluster>(copts, cluster_rng);
  fx.engine = std::make_unique<fl::AsyncEngine>(fx.model.get(), fx.cluster.get(),
                                                std::move(shards), options,
                                                root.fork(7));
  return fx;
}

fl::AsyncEngineOptions small_options() {
  fl::AsyncEngineOptions options;
  options.local_iterations = 4;
  options.batch_size = 8;
  options.optimizer = {0.05, 0.0, 0.0};
  return options;
}

TEST(AsyncEngine, ArrivalsAreTimeOrdered) {
  AsyncFixture fx = make_async(1, small_options());
  const auto records = fx.engine->run_updates(20);
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_GE(records[i].arrival_time, records[i - 1].arrival_time);
  }
  EXPECT_EQ(fx.engine->global_version(), 20u);
}

TEST(AsyncEngine, StalenessAccountingIsConsistent) {
  AsyncFixture fx = make_async(2, small_options());
  const auto records = fx.engine->run_updates(25);
  for (const auto& r : records) {
    EXPECT_EQ(r.staleness, (r.applied_version - 1) - r.downloaded_version);
    EXPECT_GT(r.weight, 0.0);
    EXPECT_LE(r.weight, small_options().mix + 1e-12);
  }
  // With 5 concurrent clients, staleness > 0 must actually occur.
  std::size_t stale = 0;
  for (const auto& r : records) {
    if (r.staleness > 0) ++stale;
  }
  EXPECT_GT(stale, 0u);
}

TEST(AsyncEngine, StalenessDiscountsWeight) {
  fl::AsyncEngineOptions options = small_options();
  options.mix = 0.8;
  options.staleness_power = 1.0;
  AsyncFixture fx = make_async(3, options);
  const auto records = fx.engine->run_updates(25);
  for (const auto& r : records) {
    EXPECT_NEAR(r.weight, 0.8 / (1.0 + static_cast<double>(r.staleness)), 1e-12);
  }
}

TEST(AsyncEngine, FastClientsContributeMoreOften) {
  AsyncFixture fx = make_async(4, small_options());
  // Identify fastest and slowest devices.
  std::vector<double> speed(fx.cluster->size());
  for (std::size_t c = 0; c < speed.size(); ++c) {
    speed[c] = fx.cluster->lease(c)->profile().base_speed;
  }
  std::size_t fast = 0, slow = 0;
  for (std::size_t c = 0; c < speed.size(); ++c) {
    if (speed[c] > speed[fast]) fast = c;
    if (speed[c] < speed[slow]) slow = c;
  }
  const auto records = fx.engine->run_updates(60);
  std::size_t fast_count = 0, slow_count = 0;
  for (const auto& r : records) {
    if (r.client_id == fast) ++fast_count;
    if (r.client_id == slow) ++slow_count;
  }
  EXPECT_GT(fast_count, slow_count);
}

TEST(AsyncEngine, Deterministic) {
  auto run = [] {
    AsyncFixture fx = make_async(5, small_options());
    fx.engine->run_updates(15);
    return std::make_pair(fx.engine->now(), fx.engine->global_state().flattened());
  };
  const auto [t1, s1] = run();
  const auto [t2, s2] = run();
  EXPECT_DOUBLE_EQ(t1, t2);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) ASSERT_EQ(s1[i], s2[i]);
}

TEST(AsyncEngine, LearnsTheTask) {
  AsyncFixture fx = make_async(6, small_options());
  fx.engine->run_updates(150);
  fx.engine->load_global_into_model();
  const data::Batch test = fx.test_set.as_batch();
  const auto eval = fx.model->evaluate(test.inputs, test.labels);
  EXPECT_GT(eval.accuracy, 0.4);  // 10 classes; async still learns
}

TEST(AsyncEngine, Validation) {
  fl::AsyncEngineOptions bad = small_options();
  bad.mix = 0.0;
  EXPECT_THROW(make_async(7, bad), std::invalid_argument);
  fl::AsyncEngineOptions bad2 = small_options();
  bad2.local_iterations = 0;
  EXPECT_THROW(make_async(8, bad2), std::invalid_argument);
}

}  // namespace
}  // namespace fedca
