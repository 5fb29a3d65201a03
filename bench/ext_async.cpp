// Extension bench: synchronous FL (FedAvg / FedCA) vs asynchronous FL.
//
// Reproduces the qualitative claim of the paper's Sec. 6: asynchronous
// updating removes all waiting — updates stream into the server — but
// stale parameters compromise training quality. We run the async engine
// with a total update budget equal to the synchronous runs' (clients x
// rounds) and report accuracy over virtual time plus staleness stats.
//
// Usage: ext_async [scale=...] [rounds=N] ...
#include <iostream>

#include "bench/common.hpp"
#include "data/partition.hpp"
#include "fl/async_engine.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"

using namespace fedca;

int main(int argc, char** argv) {
  util::Config config = bench::parse_config(argc, argv);
  if (!config.contains("rounds")) config.set("rounds", "16");
  fl::ExperimentOptions options = bench::workload_options(nn::ModelKind::kCnn, config);
  options.target_accuracy = 0.0;

  util::Table table({"scheme", "updates applied", "virtual time (s)",
                     "final accuracy", "mean staleness", "p95 staleness"});
  util::Table curves({"scheme", "virtual time (s)", "accuracy"});

  // Synchronous arms.
  for (const std::string& name : {std::string("fedavg"), std::string("fedca")}) {
    auto scheme = core::make_scheme(name, config, options.seed);
    const fl::ExperimentResult result = fl::run_experiment(options, *scheme);
    std::size_t applied = 0;
    for (const auto& round : result.rounds) {
      for (const auto& c : round.clients) {
        if (c.collected()) ++applied;
      }
    }
    table.add_row({result.scheme_name, std::to_string(applied),
                   util::Table::fmt(result.total_time, 1),
                   util::Table::fmt(result.final_accuracy, 4), "-", "-"});
    for (const fl::EvalPoint& p : result.curve) {
      curves.add_row({result.scheme_name, util::Table::fmt(p.virtual_time, 1),
                      util::Table::fmt(p.accuracy, 4)});
    }
  }

  // Asynchronous arm: same workload wiring as make_setup, same budget.
  {
    fl::FedAvgScheme placeholder;  // only used for setup plumbing
    fl::ExperimentSetup setup = fl::make_setup(options, placeholder);

    fl::AsyncEngineOptions async_options;
    async_options.local_iterations = options.local_iterations;
    async_options.batch_size = options.batch_size;
    async_options.optimizer = options.optimizer;
    async_options.mix = config.get_double("async_mix", 0.6);
    async_options.staleness_power = config.get_double("async_staleness_power", 0.5);
    util::Rng async_rng(options.seed ^ 0xA57);
    fl::AsyncEngine engine(setup.model.get(), setup.cluster.get(), setup.shards,
                           async_options, async_rng);

    const std::size_t budget = options.max_rounds * options.num_clients;
    const std::size_t eval_every = options.num_clients;  // ~once per "round"
    util::RunningStats staleness;
    std::vector<double> staleness_samples;
    double final_accuracy = 0.0;
    const data::Batch test = setup.test_set.as_batch();
    for (std::size_t i = 0; i < budget; ++i) {
      const fl::AsyncUpdateRecord record = engine.step();
      staleness.add(static_cast<double>(record.staleness));
      staleness_samples.push_back(static_cast<double>(record.staleness));
      if ((i + 1) % eval_every == 0 || i + 1 == budget) {
        engine.load_global_into_model();
        const auto eval = setup.model->evaluate(test.inputs, test.labels);
        final_accuracy = eval.accuracy;
        curves.add_row({"Async", util::Table::fmt(engine.now(), 1),
                        util::Table::fmt(eval.accuracy, 4)});
      }
    }
    table.add_row({"Async", std::to_string(budget), util::Table::fmt(engine.now(), 1),
                   util::Table::fmt(final_accuracy, 4),
                   util::Table::fmt(staleness.mean(), 2),
                   util::Table::fmt(util::percentile(staleness_samples, 0.95), 1)});
  }

  util::print_section(std::cout,
                      "Extension: synchronous (FedAvg/FedCA) vs asynchronous FL (CNN)",
                      config.dump());
  table.print(std::cout);
  std::cout << "\nExpected shape: Async applies updates continuously (low virtual\n"
               "time per update) but staleness degrades final accuracy relative to\n"
               "the synchronous arms at an equal update budget (Sec. 6's caveat).\n";
  bench::maybe_save_csv(table, config, "ext_async");
  bench::maybe_save_csv(curves, config, "ext_async_curves");
  // The async arm drives AsyncEngine directly (no run_experiment), so its
  // spans are only on record here — rewrite the outputs to include them.
  obs::flush_outputs(options.metrics_path);
  return 0;
}
