// Extending the framework: a custom FL scheme with its own client policy.
//
// FedCA's client-autonomy hooks (per-iteration callbacks, eager layers,
// retransmission selection) are public extension points. This example
// implements "LossPlateau", a toy scheme whose clients stop local training
// when their batch loss plateaus — no statistical-progress machinery —
// and races it against FedAvg and FedCA on the same workload.
//
// Writing a scheme takes two classes:
//   * a fl::ClientPolicy subclass holding one client's state across rounds
//     and overriding the hooks it needs (on_round_start, after_iteration,
//     select_retransmissions, on_round_end);
//   * a fl::Scheme subclass whose make_policy(client_id) returns a new
//     policy for that client. The scheme calls it the first time the
//     client participates and keeps the policy for later rounds, so state
//     exists only for clients that trained. A policy that draws random
//     numbers should seed them from the client id (e.g.
//     util::Rng(seed).fork(client_id)), never from a shared stream, so the
//     order in which clients first participate changes nothing.
// Server-side knobs are optional overrides: plan_round (deadline),
// planned_iterations (per-client budget), local_optimizer,
// observe_round and make_compressor.
//
// Usage: custom_scheme [key=value ...]
#include <cmath>
#include <iostream>
#include <memory>

#include "core/factory.hpp"
#include "fl/experiment.hpp"
#include "util/config.hpp"
#include "util/table.hpp"

using namespace fedca;

namespace {

// Client half: track the batch-loss trend through the live model and stop
// on plateau. (A real system would read the loss from the training loop;
// here we recompute a proxy from gradient magnitudes, which the policy can
// observe through the model's parameter gradients.)
class LossPlateauPolicy : public fl::ClientPolicy {
 public:
  explicit LossPlateauPolicy(double plateau_ratio) : plateau_ratio_(plateau_ratio) {}

  void on_round_start(const fl::RoundInfo&, const nn::ModelState&) override {
    previous_grad_norm_ = -1.0;
    flat_steps_ = 0;
  }

  fl::IterationDecision after_iteration(const fl::IterationView& view) override {
    // Gradient norm of the last backward pass — a loss-trend proxy the
    // policy can read without touching the data pipeline.
    double norm_sq = 0.0;
    for (const nn::Parameter* p : view.model->parameters()) {
      for (std::size_t i = 0; i < p->grad.numel(); ++i) {
        norm_sq += static_cast<double>(p->grad[i]) * p->grad[i];
      }
    }
    const double norm = std::sqrt(norm_sq);
    fl::IterationDecision decision;
    if (previous_grad_norm_ > 0.0 &&
        std::abs(norm - previous_grad_norm_) < plateau_ratio_ * previous_grad_norm_) {
      ++flat_steps_;
    } else {
      flat_steps_ = 0;
    }
    previous_grad_norm_ = norm;
    // Three consecutive flat gradient norms => plateau => stop.
    decision.stop = flat_steps_ >= 3 && view.iteration >= 5;
    return decision;
  }

 private:
  double plateau_ratio_;
  double previous_grad_norm_ = -1.0;
  std::size_t flat_steps_ = 0;
};

// Server half: stock planning (full workload, no deadline), one policy
// per participating client.
class LossPlateauScheme : public fl::Scheme {
 public:
  explicit LossPlateauScheme(double plateau_ratio) : plateau_ratio_(plateau_ratio) {}

  std::string name() const override { return "LossPlateau"; }

  std::unique_ptr<fl::ClientPolicy> make_policy(std::size_t /*client_id*/) override {
    return std::make_unique<LossPlateauPolicy>(plateau_ratio_);
  }

 private:
  double plateau_ratio_;
};

}  // namespace

int main(int argc, char** argv) {
  util::Config config = util::Config::from_args(argc, argv);

  fl::ExperimentOptions options;
  options.model = nn::ModelKind::kCnn;
  options.num_clients = static_cast<std::size_t>(config.get_int("clients", 10));
  options.local_iterations = static_cast<std::size_t>(config.get_int("k", 20));
  options.batch_size = 10;
  options.train_samples = static_cast<std::size_t>(config.get_int("samples", 1000));
  options.test_samples = 256;
  options.max_rounds = static_cast<std::size_t>(config.get_int("rounds", 12));
  options.data_spec.noise_stddev = config.get_double("noise", 1.2);
  options.seed = static_cast<std::uint64_t>(config.get_int("seed", 21));
  config.set("fedca_period", config.get_string("fedca_period", "4"));

  util::Table table({"scheme", "rounds", "virtual time (s)", "final accuracy",
                     "mean iterations run"});
  auto run = [&](fl::Scheme& scheme) {
    const fl::ExperimentResult result = fl::run_experiment(options, scheme);
    double iter_sum = 0.0;
    std::size_t iter_count = 0;
    for (const auto& round : result.rounds) {
      for (const auto& c : round.clients) {
        iter_sum += static_cast<double>(c.iterations_run);
        ++iter_count;
      }
    }
    table.add_row({result.scheme_name, std::to_string(result.rounds.size()),
                   util::Table::fmt(result.total_time, 1),
                   util::Table::fmt(result.final_accuracy, 3),
                   util::Table::fmt(iter_sum / static_cast<double>(iter_count), 1)});
  };

  fl::FedAvgScheme fedavg;
  run(fedavg);
  LossPlateauScheme custom(config.get_double("plateau_ratio", 0.05));
  run(custom);
  auto fedca = core::make_scheme("fedca", config, options.seed);
  run(*fedca);

  util::print_section(std::cout,
                      "Custom scheme (LossPlateau) vs FedAvg vs FedCA", config.dump());
  table.print(std::cout);
  std::cout << "\nWriting a scheme = subclass fl::Scheme (server planning) +\n"
               "fl::ClientPolicy (per-iteration client autonomy). The engine\n"
               "handles timing, transfers, aggregation, and bookkeeping.\n";
  return 0;
}
