// Scenario DSL, FL binding: mapping onto ExperimentOptions, canonical
// round-trip serialization (pinned by property tests over random
// scenarios and over every committed scenarios/*.scn), env-tier
// precedence, and scheme passthrough.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>

#include "fl/scenario.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace fedca {
namespace {

using sim::scenario::ScenarioError;

constexpr const char* kMinimal = "[scenario]\nversion = 1\n";

TEST(ScenarioBinding, MinimalFileYieldsDefaults) {
  const fl::Scenario sc = fl::parse_scenario(kMinimal);
  const fl::ExperimentOptions defaults;  // analyze:waive(scenario-hardcode) defaults probe
  EXPECT_EQ(sc.scheme, "fedavg");
  EXPECT_FALSE(sc.async_engine);
  EXPECT_EQ(sc.options.num_clients, defaults.num_clients);
  EXPECT_EQ(sc.options.local_iterations, defaults.local_iterations);
  EXPECT_EQ(sc.options.seed, defaults.seed);
  EXPECT_EQ(sc.options.max_rounds, defaults.max_rounds);
  EXPECT_EQ(sc.options.collect_fraction, defaults.collect_fraction);
  EXPECT_EQ(sc.options.worker_threads, defaults.worker_threads);
  EXPECT_FALSE(sc.options.faults.enabled);
  EXPECT_TRUE(std::isinf(sc.options.upload_timeout));
}

TEST(ScenarioBinding, VersionIsRequired) {
  EXPECT_THROW(fl::parse_scenario("[scenario]\nname = x\n"), ScenarioError);
  EXPECT_THROW(fl::parse_scenario("[run]\nseed = 1\n"), ScenarioError);
}

TEST(ScenarioBinding, MapsEverySection) {
  const fl::Scenario sc = fl::parse_scenario(
      "[scenario]\nversion = 1\nname = full\ndescription = all knobs\n"
      "[run]\nseed = 99\nrounds = 7\ntarget_accuracy = 0.5\n"
      "accuracy_smoothing = 2\neval_every = 3\nworkers = 4\n"
      "[model]\nkind = lstm\nclasses = 6\nnoise = 0.3\n"
      "amplitude_lo = 0.7\namplitude_hi = 1.3\n"
      "[data]\nclients = 9\ntrain_samples = 500\ntest_samples = 100\n"
      "alpha = 0.2\nbatch = 4\n"
      "[training]\nlocal_iterations = 11\nlr = 0.01\nweight_decay = 0.001\n"
      "prox_mu = 0.1\n"
      "[server]\ncollect_fraction = 0.8\nparticipation = 0.5\n"
      "upload_timeout = 12.5\n"
      "[scheme]\nname = fedprox\nfedprox_mu = 0.1\n"
      "[cluster]\nlink_latency = 0.01\nspeed_sigma = 0.4\nmin_speed = 0.2\n"
      "max_speed = 5\nbandwidth_mbps = 10\ndynamicity = false\n"
      "slowdown_lo = 1.5\nslowdown_hi = 3\n"
      "[faults]\nenabled = true\nhorizon = 100\ncrash_fraction = 0.1\n"
      "seed = 77\n"
      "[observability]\nreport = /tmp/r.jsonl\n");
  EXPECT_EQ(sc.name, "full");
  EXPECT_EQ(sc.options.seed, 99u);
  EXPECT_EQ(sc.options.max_rounds, 7u);
  EXPECT_EQ(sc.options.target_accuracy, 0.5);
  EXPECT_EQ(sc.options.accuracy_smoothing, 2u);
  EXPECT_EQ(sc.options.eval_every, 3u);
  EXPECT_EQ(sc.options.worker_threads, 4u);
  EXPECT_EQ(sc.options.model, nn::ModelKind::kLstm);
  EXPECT_EQ(sc.options.data_spec.num_classes, 6u);
  EXPECT_EQ(sc.options.data_spec.noise_stddev, 0.3);
  EXPECT_EQ(sc.options.num_clients, 9u);
  EXPECT_EQ(sc.options.train_samples, 500u);
  EXPECT_EQ(sc.options.test_samples, 100u);
  EXPECT_EQ(sc.options.dirichlet_alpha, 0.2);
  EXPECT_EQ(sc.options.batch_size, 4u);
  EXPECT_EQ(sc.options.local_iterations, 11u);
  EXPECT_EQ(sc.options.optimizer.learning_rate, 0.01);
  EXPECT_EQ(sc.options.optimizer.weight_decay, 0.001);
  EXPECT_EQ(sc.options.optimizer.prox_mu, 0.1);
  EXPECT_EQ(sc.options.collect_fraction, 0.8);
  EXPECT_EQ(sc.options.participation_fraction, 0.5);
  EXPECT_EQ(sc.options.upload_timeout, 12.5);
  EXPECT_EQ(sc.scheme, "fedprox");
  ASSERT_EQ(sc.scheme_params.size(), 1u);
  EXPECT_EQ(sc.scheme_params.at("fedprox_mu"), "0.1");
  EXPECT_EQ(sc.options.cluster.link_latency_seconds, 0.01);
  EXPECT_EQ(sc.options.cluster.heterogeneity.speed_sigma, 0.4);
  EXPECT_FALSE(sc.options.cluster.dynamicity.enabled);
  EXPECT_TRUE(sc.options.faults.enabled);
  EXPECT_EQ(sc.options.faults.horizon_seconds, 100.0);
  EXPECT_EQ(sc.options.faults.crash_fraction, 0.1);
  EXPECT_EQ(sc.options.faults.seed, 77u);
  EXPECT_EQ(sc.options.report_path, "/tmp/r.jsonl");

  const util::Config cfg = fl::scheme_config(sc);
  EXPECT_EQ(cfg.get_double("fedprox_mu", 0.0), 0.1);
}

TEST(ScenarioBinding, UnknownSchemeParamIsRejectedWithLine) {
  try {
    fl::parse_scenario("[scenario]\nversion = 1\n[scheme]\nname = fedca\n"
                       "learning_rate = 0.1\n",
                       "x.scn");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_EQ(e.line(), 5u);
    EXPECT_NE(std::string(e.what()).find("unknown scheme parameter"),
              std::string::npos);
  }
}

TEST(ScenarioBinding, AsyncSectionRequiresAsyncEngine) {
  EXPECT_THROW(
      fl::parse_scenario("[scenario]\nversion = 1\n[async]\nupdates = 5\n"),
      ScenarioError);
  const fl::Scenario sc = fl::parse_scenario(
      "[scenario]\nversion = 1\n[run]\nengine = async\n"
      "[async]\nupdates = 5\nmix = 0.4\ncycle_timeout = none\n");
  EXPECT_TRUE(sc.async_engine);
  EXPECT_EQ(sc.async_updates, 5u);
  EXPECT_EQ(sc.async.mix, 0.4);
  EXPECT_TRUE(std::isinf(sc.async.cycle_timeout));
}

TEST(ScenarioBinding, CrossFieldRangeChecks) {
  EXPECT_THROW(fl::parse_scenario("[scenario]\nversion = 1\n[model]\n"
                                  "amplitude_lo = 2\namplitude_hi = 1\n"),
               ScenarioError);
  EXPECT_THROW(fl::parse_scenario("[scenario]\nversion = 1\n[cluster]\n"
                                  "min_speed = 3\nmax_speed = 1\n"),
               ScenarioError);
  EXPECT_THROW(fl::parse_scenario("[scenario]\nversion = 1\n[cluster]\n"
                                  "slowdown_lo = 4\nslowdown_hi = 2\n"),
               ScenarioError);
}

// ---------------------------------------------------------------------------
// Round-trip: to_string(parse(s)) is canonical and idempotent.
// ---------------------------------------------------------------------------

void expect_round_trip(const std::string& text, const std::string& label) {
  const fl::Scenario once = fl::parse_scenario(text, label);
  const std::string canon = fl::to_string(once);
  const fl::Scenario twice = fl::parse_scenario(canon, label + " (canon)");
  EXPECT_EQ(canon, fl::to_string(twice)) << label;

  // Bit-exact field preservation through the cycle.
  const fl::ExperimentOptions& a = once.options;
  const fl::ExperimentOptions& b = twice.options;
  EXPECT_EQ(once.scheme, twice.scheme) << label;
  EXPECT_EQ(once.scheme_params, twice.scheme_params) << label;
  EXPECT_EQ(once.async_engine, twice.async_engine) << label;
  EXPECT_EQ(once.async_updates, twice.async_updates) << label;
  EXPECT_EQ(a.seed, b.seed) << label;
  EXPECT_EQ(a.model, b.model) << label;
  EXPECT_EQ(a.num_clients, b.num_clients) << label;
  EXPECT_EQ(a.local_iterations, b.local_iterations) << label;
  EXPECT_EQ(a.batch_size, b.batch_size) << label;
  EXPECT_EQ(a.dirichlet_alpha, b.dirichlet_alpha) << label;
  EXPECT_EQ(a.data_spec.noise_stddev, b.data_spec.noise_stddev) << label;
  EXPECT_EQ(a.optimizer.learning_rate, b.optimizer.learning_rate) << label;
  EXPECT_EQ(a.collect_fraction, b.collect_fraction) << label;
  EXPECT_EQ(a.participation_fraction, b.participation_fraction) << label;
  EXPECT_EQ(a.upload_timeout, b.upload_timeout) << label;
  EXPECT_EQ(a.max_rounds, b.max_rounds) << label;
  EXPECT_EQ(a.cluster.heterogeneity.speed_sigma,
            b.cluster.heterogeneity.speed_sigma)
      << label;
  EXPECT_EQ(a.faults.enabled, b.faults.enabled) << label;
  EXPECT_EQ(a.faults.crash_fraction, b.faults.crash_fraction) << label;
  EXPECT_EQ(a.faults.seed, b.faults.seed) << label;
}

TEST(ScenarioRoundTrip, CommittedScenariosAreStable) {
  const std::filesystem::path dir =
      std::filesystem::path(FEDCA_SOURCE_DIR) / "scenarios";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".scn") continue;
    ++count;
    const fl::Scenario sc = fl::load_scenario_file(entry.path().string());
    expect_round_trip(fl::to_string(sc), entry.path().filename().string());
  }
  EXPECT_GE(count, 6u) << "committed scenario library unexpectedly small";
}

// Property test: random scenarios survive parse -> serialize -> parse with
// every field bit-identical and a stable canonical form.
TEST(ScenarioRoundTrip, RandomScenariosAreStable) {
  util::Rng rng(2026);
  for (int i = 0; i < 50; ++i) {
    fl::Scenario sc;
    sc.name = "prop_" + std::to_string(i);
    sc.options.seed = rng();
    sc.options.max_rounds = 1 + rng.uniform_index(200);
    sc.options.num_clients = 1 + rng.uniform_index(64);
    sc.options.local_iterations = 1 + rng.uniform_index(50);
    sc.options.batch_size = 1 + rng.uniform_index(32);
    sc.options.train_samples = 1 + rng.uniform_index(5000);
    sc.options.test_samples = 1 + rng.uniform_index(512);
    sc.options.dirichlet_alpha = rng.uniform(0.01, 10.0);
    sc.options.data_spec.noise_stddev = rng.uniform(0.0, 2.0);
    sc.options.optimizer.learning_rate = rng.uniform(0.0, 1.0);
    sc.options.optimizer.weight_decay = rng.uniform(0.0, 0.01);
    sc.options.collect_fraction = rng.uniform();
    sc.options.participation_fraction = rng.uniform();
    sc.options.target_accuracy = rng.uniform();
    sc.options.worker_threads = rng.uniform_index(9);
    sc.options.upload_timeout =
        rng.uniform() < 0.5 ? std::numeric_limits<double>::infinity()
                            : rng.uniform(0.0, 100.0);
    sc.options.cluster.link_latency_seconds = rng.uniform(0.0, 1.0);
    sc.options.cluster.heterogeneity.speed_sigma = rng.uniform(0.0, 2.0);
    sc.options.cluster.dynamicity.enabled = rng.uniform() < 0.5;
    if (rng.uniform() < 0.5) {
      sc.options.faults.enabled = true;
      sc.options.faults.crash_fraction = rng.uniform();
      sc.options.faults.dropouts_per_client = rng.uniform(0.0, 3.0);
      sc.options.faults.eager_loss_probability = rng.uniform();
      sc.options.faults.seed = rng();
    }
    if (rng.uniform() < 0.3) {
      sc.async_engine = true;
      sc.async_updates = 1 + rng.uniform_index(100);
      sc.async.mix = rng.uniform();
      sc.async.staleness_power = rng.uniform(0.0, 2.0);
    }
    if (rng.uniform() < 0.5) {
      sc.scheme = "fedca";
      sc.scheme_params["fedca_period"] =
          std::to_string(1 + rng.uniform_index(10));
      sc.scheme_params["compress"] = "topk";
    }
    expect_round_trip(fl::to_string(sc), sc.name);
  }
}

// ---------------------------------------------------------------------------
// Precedence: scenario < env (resolve_options); explicit caller mutation
// of the returned options trivially wins (programmatic tier).
// ---------------------------------------------------------------------------

class ScopedEnv {
 public:
  // value == nullptr unsets the variable for the scope.
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) old_ = old;
    if (value == nullptr) {
      ::unsetenv(name);
    } else {
      ::setenv(name, value, 1);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string old_;
  bool had_ = false;
};

TEST(ScenarioPrecedence, EnvOverlaysScenarioTier) {
  const fl::Scenario sc = fl::parse_scenario(
      "[scenario]\nversion = 1\n[run]\nworkers = 2\n"
      "[observability]\nreport = /tmp/from_file.jsonl\n");
  {
    ScopedEnv report("FEDCA_REPORT", "/tmp/from_env.jsonl");
    ScopedEnv threads("FEDCA_THREADS", "6");
    const fl::ExperimentOptions o = fl::resolve_options(sc);
    EXPECT_EQ(o.report_path, "/tmp/from_env.jsonl");
    EXPECT_EQ(o.worker_threads, 6u);
  }
  // Without the env tier the file's values stand.
  ScopedEnv report("FEDCA_REPORT", nullptr);
  ScopedEnv threads("FEDCA_THREADS", nullptr);
  const fl::ExperimentOptions o = fl::resolve_options(sc);
  EXPECT_EQ(o.report_path, "/tmp/from_file.jsonl");
  EXPECT_EQ(o.worker_threads, 2u);
}

TEST(ScenarioPrecedence, MalformedThreadsEnvIsIgnored) {
  const fl::Scenario sc = fl::parse_scenario(
      "[scenario]\nversion = 1\n[run]\nworkers = 3\n");
  ScopedEnv threads("FEDCA_THREADS", "not-a-number");
  const fl::ExperimentOptions o = fl::resolve_options(sc);
  EXPECT_EQ(o.worker_threads, 3u);
}

}  // namespace
}  // namespace fedca
