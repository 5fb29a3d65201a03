// The run report's line sink and the engines' emission paths (the
// serializer itself is tested in tests/fl/run_report_test.cpp).
#include "obs/round_report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "fl/async_engine.hpp"
#include "fl/experiment.hpp"
#include "fl/scenario.hpp"
#include "fl/scheme.hpp"

namespace fedca {
namespace {

class RoundReportTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::RoundReportWriter::global().reset(); }
  void TearDown() override { obs::RoundReportWriter::global().reset(); }
};

TEST_F(RoundReportTest, WriterAppendsLinesToDiskImmediately) {
  const std::string path =
      ::testing::TempDir() + "/fedca_round_report_test.jsonl";
  std::remove(path.c_str());
  obs::RoundReportWriter& writer = obs::RoundReportWriter::global();
  EXPECT_FALSE(writer.enabled());
  writer.set_output_path(path);
  EXPECT_TRUE(writer.enabled());

  const std::string first = "{\"type\":\"round\",\"round\":0}";
  const std::string second = "{\"type\":\"async_update\",\"update\":0}";
  writer.append_line(first);
  writer.append_line(second);
  EXPECT_EQ(writer.line_count(), 2u);

  // Both lines are already on disk (append + flush per line), no explicit
  // flush() needed — the crash-durability property.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], first);
  EXPECT_EQ(lines[1], second);
  std::remove(path.c_str());
}

TEST_F(RoundReportTest, RoundEngineEmitsOneLinePerRound) {
  const std::string path =
      ::testing::TempDir() + "/fedca_round_engine_report.jsonl";
  std::remove(path.c_str());
  obs::RoundReportWriter::global().set_output_path(path);

  // Geometry from the committed baseline scenario; only the knobs this
  // test asserts on are overridden.
  const fl::Scenario sc = fl::load_scenario_file(
      std::string(FEDCA_SOURCE_DIR) + "/scenarios/faultfree.scn");
  fl::ExperimentOptions options = sc.options;
  options.num_clients = 4;
  options.local_iterations = 3;
  options.train_samples = 160;
  options.test_samples = 32;
  options.collect_fraction = 0.75;
  options.worker_threads = 1;
  options.seed = 9;
  fl::FedAvgScheme scheme;
  fl::ExperimentSetup setup = fl::make_setup(options, scheme);
  setup.engine->run_round();
  setup.engine->run_round();

  const std::vector<std::string> lines = obs::RoundReportWriter::global().lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"type\":\"round\",\"round\":0"), std::string::npos);
  EXPECT_NE(lines[1].find("\"type\":\"round\",\"round\":1"), std::string::npos);
  // 4 participants -> 4 client objects, 3 collected + 1 shed at 0.75.
  EXPECT_NE(lines[0].find("\"participants\":4"), std::string::npos);
  EXPECT_NE(lines[0].find("\"collected\":3"), std::string::npos);
  EXPECT_NE(lines[0].find("\"shed\":1"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(RoundReportTest, AsyncEngineEmitsOneLinePerUpdate) {
  const std::string path =
      ::testing::TempDir() + "/fedca_async_engine_report.jsonl";
  std::remove(path.c_str());
  obs::RoundReportWriter::global().set_output_path(path);

  util::Rng root(11);
  util::Rng model_rng = root.fork(1);
  auto model = std::make_unique<nn::Classifier>(
      nn::build_model(nn::ModelKind::kCnn, model_rng));
  data::SyntheticSpec spec;
  util::Rng data_rng = root.fork(2);
  data::SyntheticTask task(nn::ModelKind::kCnn, spec, data_rng);
  util::Rng train_rng = root.fork(3);
  data::Dataset train = task.sample(160, train_rng);
  data::PartitionOptions part;
  part.num_clients = 4;
  part.num_classes = spec.num_classes;
  util::Rng part_rng = root.fork(4);
  auto shards = data::dirichlet_partition(train, part, part_rng);
  sim::ClusterOptions copts;
  copts.num_clients = 4;
  util::Rng cluster_rng = root.fork(5);
  sim::Cluster cluster(copts, cluster_rng);
  fl::AsyncEngineOptions aopts;
  aopts.local_iterations = 3;
  aopts.batch_size = 8;
  aopts.worker_threads = 1;
  fl::AsyncEngine engine(model.get(), &cluster, std::move(shards), aopts,
                         root.fork(6));
  engine.run_updates(5);

  const std::vector<std::string> lines = obs::RoundReportWriter::global().lines();
  ASSERT_EQ(lines.size(), 5u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].find("\"type\":\"async_update\",\"update\":" +
                            std::to_string(i)),
              std::string::npos)
        << lines[i];
    EXPECT_NE(lines[i].find("\"outcome\":\"applied\""), std::string::npos);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fedca
