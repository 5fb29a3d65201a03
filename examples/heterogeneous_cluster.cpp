// Heterogeneous-cluster scenario: the straggler problem and how FedCA's
// early stopping defuses it.
//
// Demonstrates the trace/sim substrate directly — device profiles,
// dynamic speed timelines, per-round completion distributions — then runs
// FedAvg and FedCA on the same cluster and compares straggler impact.
//
// Usage: heterogeneous_cluster [key=value ...]
#include <algorithm>
#include <iostream>

#include "core/factory.hpp"
#include "fl/experiment.hpp"
#include "util/config.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace fedca;

int main(int argc, char** argv) {
  util::Config config = util::Config::from_args(argc, argv);

  // --- Part 1: the simulated device fleet. ---
  sim::ClusterOptions cluster_options;
  cluster_options.num_clients =
      static_cast<std::size_t>(config.get_int("clients", 12));
  util::Rng rng(static_cast<std::uint64_t>(config.get_int("seed", 7)));
  sim::Cluster cluster(cluster_options, rng);

  util::Table fleet({"client", "base speed", "bandwidth (Mbps)",
                     "speed @ t=0s", "speed @ t=60s", "avg speed [0, 300s]"});
  for (std::size_t c = 0; c < cluster.size(); ++c) {
    const sim::DeviceLease lease = cluster.lease(c);
    sim::ClientDevice& device = *lease;
    fleet.add_row({std::to_string(c), util::Table::fmt(device.profile().base_speed, 2),
                   util::Table::fmt(device.profile().bandwidth_mbps, 1),
                   util::Table::fmt(device.timeline().speed_at(0.0), 2),
                   util::Table::fmt(device.timeline().speed_at(60.0), 2),
                   util::Table::fmt(device.timeline().average_speed(0.0, 300.0), 2)});
  }
  util::print_section(std::cout, "Simulated device fleet (FedScale-style "
                                 "heterogeneity + gamma fast/slow dynamicity)");
  fleet.print(std::cout);

  // --- Part 2: straggler impact per scheme. ---
  fl::ExperimentOptions options;
  options.model = nn::ModelKind::kCnn;
  options.num_clients = cluster_options.num_clients;
  options.local_iterations = static_cast<std::size_t>(config.get_int("k", 20));
  options.batch_size = 10;
  options.train_samples = static_cast<std::size_t>(config.get_int("samples", 1000));
  options.test_samples = 256;
  options.max_rounds = static_cast<std::size_t>(config.get_int("rounds", 12));
  options.seed = static_cast<std::uint64_t>(config.get_int("seed", 7));
  config.set("fedca_period", config.get_string("fedca_period", "4"));

  util::Table impact({"scheme", "mean round (s)", "p95 round (s)",
                      "mean straggler wait (s)", "early stops"});
  for (const std::string& name : {std::string("fedavg"), std::string("fedca")}) {
    auto scheme = core::make_scheme(name, config, options.seed);
    const fl::ExperimentResult result = fl::run_experiment(options, *scheme);

    std::vector<double> durations;
    util::RunningStats straggler_wait;  // last collected arrival - median arrival
    for (const auto& round : result.rounds) {
      durations.push_back(round.duration());
      std::vector<double> arrivals;
      for (const auto& c : round.clients) {
        if (c.collected()) arrivals.push_back(c.arrival_time - round.start_time);
      }
      if (arrivals.size() > 1) {
        std::sort(arrivals.begin(), arrivals.end());
        straggler_wait.add(arrivals.back() - arrivals[arrivals.size() / 2]);
      }
    }
    util::RunningStats stats;
    for (const double d : durations) stats.add(d);
    impact.add_row({result.scheme_name, util::Table::fmt(stats.mean(), 2),
                    util::Table::fmt(util::percentile(durations, 0.95), 2),
                    util::Table::fmt(straggler_wait.mean(), 2),
                    std::to_string(result.early_stop_iterations().size())});
  }
  util::print_section(std::cout, "Straggler impact: FedAvg waits for slow "
                                 "devices; FedCA's clients stop autonomously");
  impact.print(std::cout);
  return 0;
}
