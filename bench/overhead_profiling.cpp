// Sec. 5.5 — profiling overhead accounting, plus an anchor-period
// memory/fidelity ablation (DESIGN.md Sec. 5).
//
// Paper numbers at their scale: 618 / 905 / 9974 sampled parameters for
// CNN / LSTM / WRN, i.e. 0.24 / 0.34 / 3.8 MB of per-round profiling
// memory over K = 125 iterations — negligible vs model sizes (WRN:
// 139.4 MB). We report the same accounting for our instantiated models
// (and the naive full-profiling cost they replace) at both K = 125 and
// the bench-scale K.
//
// Usage: overhead_profiling [key=value...]
#include <iostream>
#include <stdexcept>

#include "bench/common.hpp"
#include "core/sampling_profiler.hpp"
#include "nn/state.hpp"
#include "obs/metrics.hpp"

using namespace fedca;

namespace {

std::string mb(double bytes) { return util::Table::fmt(bytes / (1024.0 * 1024.0), 3); }

double lookup(const std::vector<obs::MetricRow>& rows, const std::string& name) {
  for (const obs::MetricRow& row : rows) {
    if (row.name == name) return row.value;
  }
  throw std::runtime_error("metric not published: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Config config = bench::parse_config(argc, argv);
  const std::size_t paper_k = 125;
  const auto quick_k =
      static_cast<std::size_t>(config.get_int("k", 24));

  // The Sec. 5.5 accounting is published through the metrics registry —
  // the same pathway any instrumented run uses — and the table below is
  // rendered from the registry snapshot, not from values recomputed
  // inline. `metrics=` additionally saves the snapshot.
  obs::set_metrics_enabled(true);

  std::vector<std::string> model_names;
  for (const nn::ModelKind kind :
       {nn::ModelKind::kCnn, nn::ModelKind::kLstm, nn::ModelKind::kWrn}) {
    util::Rng rng(1);
    nn::Classifier model = nn::build_model(kind, rng);
    nn::ModelState state = model.state();

    core::SamplingProfiler profiler(core::ProfilerOptions{}, util::Rng(2));
    profiler.begin_round(0, state);
    profiler.record_iteration(model.backbone());
    profiler.finish_round();

    const std::string& name = model.info().name;
    model_names.push_back(name);
    const std::string prefix = "overhead." + name + ".";
    FEDCA_MGAUGE(prefix + "layers", static_cast<double>(state.layer_count()));
    FEDCA_MGAUGE(prefix + "model_params", static_cast<double>(state.numel()));
    FEDCA_MGAUGE(prefix + "sampled_params",
                 static_cast<double>(profiler.sampled_param_count()));
    FEDCA_MGAUGE(prefix + "profiling_bytes_k125",
                 static_cast<double>(profiler.profiling_bytes(paper_k)));
    FEDCA_MGAUGE(prefix + "naive_bytes_k125",
                 static_cast<double>(state.numel()) * 4.0 *
                     static_cast<double>(paper_k));
    FEDCA_MGAUGE(prefix + "wire_bytes", model.info().simulated_model_bytes());
    // Per-layer sample budget (the min(50 %, 100) rule): 4 bytes per
    // sampled scalar per iteration, summarized as a distribution.
    for (const std::size_t sampled : profiler.sampled_per_layer()) {
      FEDCA_MHISTO(prefix + "layer_sampled_bytes", 0.0, 400.0, 40,
                   static_cast<double>(sampled) * 4.0);
    }
  }

  const std::vector<obs::MetricRow> rows = obs::MetricsRegistry::global().snapshot();
  util::Table table({"model", "layers", "model params", "sampled params",
                     "profiling MB (K=125)", "naive full-profiling MB (K=125)",
                     "model wire MB (paper scale)"});
  for (const std::string& name : model_names) {
    const std::string prefix = "overhead." + name + ".";
    table.add_row({name,
                   std::to_string(static_cast<std::size_t>(lookup(rows, prefix + "layers"))),
                   std::to_string(static_cast<std::size_t>(lookup(rows, prefix + "model_params"))),
                   std::to_string(static_cast<std::size_t>(lookup(rows, prefix + "sampled_params"))),
                   mb(lookup(rows, prefix + "profiling_bytes_k125")),
                   mb(lookup(rows, prefix + "naive_bytes_k125")),
                   mb(lookup(rows, prefix + "wire_bytes"))});
  }
  util::print_section(std::cout, "Sec. 5.5: periodical-sampling memory overhead",
                      config.dump());
  table.print(std::cout);
  std::cout << "  [paper] reported sampled params: CNN 618, LSTM 905, WRN 9974 -> "
               "0.24 / 0.34 / 3.8 MB; WRN full profiling would need ~14 GB.\n";

  // Anchor-period ablation: memory is amortized over `period` rounds;
  // longer periods also stale the curves. We quantify staleness as the
  // max deviation between the anchor round's curve and the curve of the
  // last round the anchor serves.
  util::Table ablation({"period", "amortized profiling MB/round (K=" +
                                      std::to_string(quick_k) + ")",
                        "curve staleness (max |dP|)"});
  fl::ExperimentOptions options = bench::workload_options(nn::ModelKind::kCnn, config);
  options.target_accuracy = 0.0;
  options.max_rounds = static_cast<std::size_t>(config.get_int("ablation_rounds", 21));
  bench::RecordingScheme recorder(100, options.seed);
  fl::run_experiment(options, recorder);
  const auto& history = recorder.history(0);

  util::Rng rng(1);
  nn::Classifier cnn = nn::build_model(nn::ModelKind::kCnn, rng);
  core::SamplingProfiler sizer(core::ProfilerOptions{}, util::Rng(2));
  nn::ModelState state = cnn.state();
  sizer.begin_round(0, state);
  sizer.record_iteration(cnn.backbone());
  sizer.finish_round();
  const double per_round_bytes = static_cast<double>(sizer.profiling_bytes(quick_k));

  for (const std::size_t period : {1u, 5u, 10u, 20u}) {
    double staleness = 0.0;
    for (std::size_t anchor = 0; anchor + period < history.size(); anchor += period) {
      const auto& a = history[anchor].model;
      const auto& b = history[anchor + period - 1].model;
      const std::size_t n = std::min(a.size(), b.size());
      for (std::size_t it = 0; it < n; ++it) {
        staleness = std::max(staleness, std::abs(a[it] - b[it]));
      }
    }
    ablation.add_row({std::to_string(period),
                      mb(per_round_bytes / static_cast<double>(period)),
                      util::Table::fmt(staleness, 4)});
  }
  util::print_section(std::cout,
                      "Ablation: profiling period vs memory and curve staleness (CNN)");
  ablation.print(std::cout);

  bench::maybe_save_csv(table, config, "overhead_profiling");
  bench::maybe_save_csv(ablation, config, "overhead_period_ablation");
  const std::string metrics_path = config.get_string("metrics", "");
  if (!metrics_path.empty()) obs::MetricsRegistry::global().save(metrics_path);
  return 0;
}
