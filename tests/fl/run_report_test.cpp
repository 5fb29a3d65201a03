// The run report serialized from the engines' records: derived fields,
// deterministic JSONL, and agreement between the records run_experiment
// keeps and the lines it wrote.
#include "fl/run_report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "fl/async_engine.hpp"
#include "fl/experiment.hpp"
#include "fl/scenario.hpp"
#include "obs/round_report.hpp"

namespace fedca {
namespace {

fl::ClientRoundResult client(std::size_t id, fl::ClientOutcome outcome, double duration,
                             double weight = 0.0) {
  fl::ClientRoundResult c;
  c.client_id = id;
  c.outcome = outcome;
  c.arrival_time = duration;  // rounds below start at 0 unless stated
  c.collected_weight = weight;
  return c;
}

TEST(RunReport, FinalizeTalliesOutcomesAndPercentiles) {
  using fl::ClientOutcome;
  fl::RoundRecord record;
  record.round_index = 3;
  record.deadline = 3.0;
  record.clients.push_back(client(0, ClientOutcome::kCollected, 1.0, 0.25));
  record.clients.push_back(client(1, ClientOutcome::kCollected, 2.0, 0.75));
  record.clients.push_back(client(2, ClientOutcome::kShed, 3.5));
  record.clients.push_back(client(3, ClientOutcome::kCrashed, fl::kNoDeadline));
  record.clients.push_back(client(4, ClientOutcome::kDropout, fl::kNoDeadline));
  record.clients.push_back(client(5, ClientOutcome::kTimedOut, 4.0));
  record.clients[0].early_stopped = true;
  record.clients[0].eager.resize(3);
  record.clients[0].retransmitted_layers = 1;

  const fl::RoundReportStats s = fl::finalize_round_report(record);
  EXPECT_EQ(s.collected, 2u);
  EXPECT_EQ(s.shed, 1u);
  EXPECT_EQ(s.crashed, 1u);
  EXPECT_EQ(s.dropout, 1u);
  EXPECT_EQ(s.timed_out, 1u);
  EXPECT_EQ(s.link_outage, 0u);
  EXPECT_EQ(s.early_stops, 1u);
  EXPECT_EQ(s.eager_layers, 3u);
  EXPECT_EQ(s.retransmitted_layers, 1u);
  // Realized durations: {1.0, 2.0, 3.5, 4.0} (never-arrived excluded).
  EXPECT_DOUBLE_EQ(s.realized_p50, 2.0);
  EXPECT_DOUBLE_EQ(s.realized_p90, 4.0);
  EXPECT_DOUBLE_EQ(s.realized_max, 4.0);
  // 4 finite durations -> 1 straggler (the slowest), threshold = its time.
  EXPECT_EQ(s.stragglers, 1u);
  EXPECT_TRUE(s.straggler[5]);
  EXPECT_DOUBLE_EQ(s.straggler_threshold, 4.0);
  // Deadline attribution: 3.5 and 4.0 exceed T_R = 3.0.
  EXPECT_TRUE(s.deadline_overrun);
  EXPECT_FALSE(s.past_deadline[1]);
  EXPECT_TRUE(s.past_deadline[2]);
  EXPECT_TRUE(s.past_deadline[5]);
}

TEST(RunReport, StragglerDecileRoundsUpAndBreaksTiesByClientId) {
  fl::RoundRecord record;
  for (std::size_t i = 0; i < 12; ++i) {
    record.clients.push_back(client(i, fl::ClientOutcome::kCollected, 1.0, 1.0 / 12.0));
  }
  const fl::RoundReportStats s = fl::finalize_round_report(record);
  // ceil(12/10) = 2 stragglers; all durations tie, so the HIGHEST client
  // ids are spared: ties resolve toward flagging lower ids.
  EXPECT_EQ(s.stragglers, 2u);
  EXPECT_TRUE(s.straggler[0]);
  EXPECT_TRUE(s.straggler[1]);
  EXPECT_FALSE(s.straggler[11]);
}

TEST(RunReport, JsonLinesAreDeterministicWithNullForNonFinite) {
  fl::RoundRecord record;
  record.round_index = 1;
  record.start_time = 0.5;
  record.end_time = 2.5;
  record.clients.push_back(client(4, fl::ClientOutcome::kCrashed, fl::kNoDeadline));
  const std::string line = fl::to_json_line(record);
  EXPECT_NE(line.find("\"type\":\"round\""), std::string::npos);
  EXPECT_NE(line.find("\"deadline\":null"), std::string::npos);
  EXPECT_NE(line.find("\"duration\":null"), std::string::npos);
  EXPECT_NE(line.find("\"outcome\":\"crashed\""), std::string::npos);
  EXPECT_EQ(line, fl::to_json_line(record)) << "serialization must be stable";

  fl::AsyncUpdateRecord update;
  update.client_id = 2;
  update.arrival_time = 1.25;
  update.staleness = 3;
  update.weight = 0.15;
  const std::string async_line = fl::to_json_line(update, 7, "applied");
  EXPECT_EQ(async_line,
            "{\"type\":\"async_update\",\"update\":7,\"client\":2,\"arrival\":1.25,"
            "\"staleness\":3,\"weight\":0.15,\"lost\":false,\"outcome\":\"applied\"}");
}

// One (outcome, weight) token pair per client object of a round line.
std::vector<std::pair<std::string, std::string>> client_outcomes(const std::string& line) {
  std::vector<std::pair<std::string, std::string>> out;
  const std::string outcome_key = "\"outcome\":\"";
  const std::string weight_key = ",\"weight\":";
  for (std::size_t at = line.find(outcome_key); at != std::string::npos;
       at = line.find(outcome_key, at)) {
    at += outcome_key.size();
    const std::string outcome = line.substr(at, line.find('"', at) - at);
    const std::size_t w = line.find(weight_key, at) + weight_key.size();
    out.emplace_back(outcome, line.substr(w, line.find('}', w) - w));
  }
  return out;
}

class RunReportScenario : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override { obs::RoundReportWriter::global().reset(); }
  void TearDown() override { obs::RoundReportWriter::global().reset(); }
};

// The records run_experiment keeps and the report lines it wrote carry the
// same outcome and weight for every client, row for row.
TEST_P(RunReportScenario, ResultRecordsMatchReportRowForRow) {
  const fl::Scenario sc = fl::load_scenario_file(std::string(FEDCA_SOURCE_DIR) +
                                                 "/scenarios/" + GetParam() + ".scn");
  fl::ExperimentOptions options = sc.options;
  options.worker_threads = 1;
  // chaos.scn spreads its faults over 4000 virtual seconds, far past its
  // ~4 s run; squeeze them into the run so fault outcomes appear.
  if (options.faults.enabled) options.faults.horizon_seconds = 4.0;
  options.report_path =
      ::testing::TempDir() + "/fedca_run_report_" + GetParam() + ".jsonl";
  auto scheme = core::make_scheme(sc.scheme, fl::scheme_config(sc), options.seed);
  const fl::ExperimentResult result = fl::run_experiment(options, *scheme);

  std::ifstream in(options.report_path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), result.rounds.size());
  std::size_t not_collected = 0;
  for (std::size_t r = 0; r < lines.size(); ++r) {
    const fl::RoundRecord& record = result.rounds[r];
    const auto rows = client_outcomes(lines[r]);
    ASSERT_EQ(rows.size(), record.clients.size()) << "round " << r;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const fl::ClientRoundResult& c = record.clients[i];
      char weight[40];
      std::snprintf(weight, sizeof(weight), "%.10g", c.collected_weight);
      EXPECT_EQ(rows[i].first, fl::outcome_name(c.outcome)) << "round " << r << " row " << i;
      EXPECT_EQ(rows[i].second, weight) << "round " << r << " row " << i;
      if (!c.collected()) ++not_collected;
    }
  }
  // Both scenarios exercise the non-collected outcomes.
  EXPECT_GT(not_collected, 0u);
  std::remove(options.report_path.c_str());
}

// run_experiment stores every record with its update tensors released.
TEST_P(RunReportScenario, StoredRecordsHoldNoUpdateTensors) {
  const fl::Scenario sc = fl::load_scenario_file(std::string(FEDCA_SOURCE_DIR) +
                                                 "/scenarios/" + GetParam() + ".scn");
  fl::ExperimentOptions options = sc.options;
  options.worker_threads = 1;
  auto scheme = core::make_scheme(sc.scheme, fl::scheme_config(sc), options.seed);
  const fl::ExperimentResult result = fl::run_experiment(options, *scheme);
  ASSERT_FALSE(result.rounds.empty());
  std::size_t eager = 0;
  for (const fl::RoundRecord& record : result.rounds) {
    for (const fl::ClientRoundResult& c : record.clients) {
      EXPECT_EQ(c.applied_update.layer_count(), 0u);
      for (const fl::EagerRecord& e : c.eager) {
        EXPECT_EQ(e.value.numel(), 0u);
        ++eager;
      }
    }
  }
  if (sc.scheme == "fedca") {
    EXPECT_GT(eager, 0u) << "no eager layer was checked";
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, RunReportScenario,
                         ::testing::Values("chaos", "deadline_stress"));

}  // namespace
}  // namespace fedca
