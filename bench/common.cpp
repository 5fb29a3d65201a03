#include "bench/common.hpp"

#include <stdexcept>

#include "core/sampling_profiler.hpp"
#include "nn/state.hpp"

namespace fedca::bench {

util::Config parse_config(int argc, char** argv) {
  util::Config config = util::Config::from_args(argc, argv);
  util::Config env;
  env.load_env({"scale", "csv_dir", "seed", "clients", "k", "rounds", "trace", "metrics"});
  env.overlay(config);  // CLI wins over environment
  // Quick-scale runs last tens of rounds, so the paper's 1-anchor-in-10
  // profiling would leave FedCA stale for most of them; profile 1-in-5 by
  // default (still amortized, still a priori).
  if (env.get_string("scale", "quick") != "paper" && !env.contains("fedca_period")) {
    env.set("fedca_period", "5");
  }
  return env;
}

double paper_target_accuracy(nn::ModelKind kind) {
  switch (kind) {
    case nn::ModelKind::kCnn: return 0.55;
    case nn::ModelKind::kLstm: return 0.85;
    case nn::ModelKind::kWrn: return 0.55;
  }
  return 0.55;
}

namespace {

struct WorkloadDefaults {
  double learning_rate;
  double weight_decay;
  double noise;
  double target;
};

// Quick-scale defaults per workload. Noise levels are tuned so the target
// accuracy is reached after a few dozen federated rounds under
// Dirichlet(0.1) — mirroring the paper's "near-optimal accuracy" regime
// where the last stretch of training is slow.
WorkloadDefaults quick_defaults(nn::ModelKind kind) {
  switch (kind) {
    // Paper lrs: 0.01 / 0.05 / 0.1; quick-scale models are smaller so the
    // CNN takes a slightly hotter lr.
    case nn::ModelKind::kCnn: return {0.05, 0.01, 1.6, 0.55};
    case nn::ModelKind::kLstm: return {0.10, 0.01, 1.0, 0.85};
    case nn::ModelKind::kWrn: return {0.05, 0.0005, 1.4, 0.55};
  }
  return {0.05, 0.0, 1.0, 0.5};
}

}  // namespace

fl::ExperimentOptions workload_options(nn::ModelKind kind, const util::Config& config) {
  const std::string scale = config.get_string("scale", "quick");
  const WorkloadDefaults defaults = quick_defaults(kind);

  fl::ExperimentOptions options;
  options.model = kind;
  if (scale == "paper") {
    options.num_clients = 128;
    options.local_iterations = 125;
    options.batch_size = 50;
    options.train_samples = 60'000;
    options.test_samples = 2'000;
    options.max_rounds = 400;
  } else if (scale == "quick") {
    // Geometry tuned so clients run ~5 local epochs per round — the deep
    // local-training regime (paper: ~16 epochs/round) that produces the
    // strongly concave progress curves FedCA exploits.
    options.num_clients = 10;
    options.local_iterations = 30;
    options.batch_size = 10;
    options.train_samples = 600;
    options.test_samples = 320;
    options.max_rounds = 50;
  } else {
    throw util::ConfigError("unknown scale '" + scale + "' (quick|paper)");
  }

  options.num_clients = static_cast<std::size_t>(
      config.get_int("clients", static_cast<long>(options.num_clients)));
  options.local_iterations = static_cast<std::size_t>(
      config.get_int("k", static_cast<long>(options.local_iterations)));
  options.batch_size = static_cast<std::size_t>(
      config.get_int("batch", static_cast<long>(options.batch_size)));
  options.train_samples = static_cast<std::size_t>(
      config.get_int("samples", static_cast<long>(options.train_samples)));
  options.test_samples = static_cast<std::size_t>(
      config.get_int("test_samples", static_cast<long>(options.test_samples)));
  options.max_rounds = static_cast<std::size_t>(
      config.get_int("rounds", static_cast<long>(options.max_rounds)));
  options.dirichlet_alpha = config.get_double("alpha", 0.1);
  options.data_spec.noise_stddev = config.get_double("noise", defaults.noise);
  options.optimizer.learning_rate = config.get_double("lr", defaults.learning_rate);
  options.optimizer.weight_decay = config.get_double("wd", defaults.weight_decay);
  options.collect_fraction = config.get_double("collect_fraction", 0.9);
  options.target_accuracy = config.get_double("target", defaults.target);
  options.seed = static_cast<std::uint64_t>(config.get_int("seed", 42));
  options.cluster.dynamicity.enabled = config.get_bool("dynamicity", true);
  options.cluster.heterogeneity.bandwidth_mbps = config.get_double("bandwidth_mbps", 13.7);
  // trace=/metrics= (or FEDCA_TRACE/FEDCA_METRICS) arm the observability
  // outputs; run_experiment resolves the env fallback itself, so only the
  // explicit config keys are threaded here.
  options.trace_path = config.get_string("trace", "");
  options.metrics_path = config.get_string("metrics", "");
  return options;
}

void maybe_save_csv(const util::Table& table, const util::Config& config,
                    const std::string& name) {
  const std::string dir = config.get_string("csv_dir", "");
  if (dir.empty()) return;
  table.save_csv(dir + "/" + name + ".csv");
}

// --- RecordingScheme ---

class RecordingScheme::RecordingPolicy : public fl::ClientPolicy {
 public:
  RecordingPolicy(std::size_t layer_cap, util::Rng rng)
      : profiler_(make_options(layer_cap), rng) {}

  void on_round_start(const fl::RoundInfo& round, const nn::ModelState& global) override {
    round_index_ = round.round_index;
    layer_names_ = global.names;
    profiler_.begin_round(round.round_index, global);
  }

  fl::IterationDecision after_iteration(const fl::IterationView& view) override {
    profiler_.record_iteration(*view.model);
    return {};
  }

  void on_round_end(const fl::RoundInfo&) override {
    profiler_.finish_round();
    RoundCurves curves;
    curves.round_index = round_index_;
    curves.layer_names = layer_names_;
    curves.layers = profiler_.layer_curves();
    curves.model = profiler_.model_curve();
    history_.push_back(std::move(curves));
  }

  const std::vector<RoundCurves>& history() const { return history_; }

 private:
  static core::ProfilerOptions make_options(std::size_t layer_cap) {
    core::ProfilerOptions o;
    o.period = 1;             // every round is an anchor
    o.layer_fraction = 1.0;   // exact curves (up to the cap)
    o.layer_cap = layer_cap;
    return o;
  }

  core::SamplingProfiler profiler_;
  std::size_t round_index_ = 0;
  std::vector<std::string> layer_names_;
  std::vector<RoundCurves> history_;
};

RecordingScheme::RecordingScheme(std::size_t layer_cap, std::uint64_t seed)
    : layer_cap_(layer_cap), seed_(seed) {}

std::unique_ptr<fl::ClientPolicy> RecordingScheme::make_policy(std::size_t client_id) {
  return std::make_unique<RecordingPolicy>(layer_cap_, util::Rng(seed_).fork(client_id));
}

const std::vector<RoundCurves>& RecordingScheme::history(std::size_t client_id) const {
  return static_cast<const RecordingPolicy&>(created_policy(client_id)).history();
}

}  // namespace fedca::bench
