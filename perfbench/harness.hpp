// Shared declarations of the end-to-end benchmark harness (harness.cpp runs
// the workloads, probe.cpp times single layers outside any round).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fl/async_engine.hpp"
#include "fl/experiment.hpp"

namespace perfbench {

// One benchmark workload: the options handed to fl::make_setup plus the
// step schedule and the output checks.
struct Workload {
  std::string name;
  std::string scheme;  // core::make_scheme name
  std::size_t fedca_period = 0;  // profiler anchor period (FedCA schemes only)
  fedca::fl::ExperimentOptions options;
  bool async = false;
  fedca::fl::AsyncEngineOptions async_options;
  std::size_t warmup_steps = 0;  // untimed steps at the start of a trajectory
  std::size_t timed_steps = 0;
  // Trajectories whose deterministic results (accuracy, virtual time,
  // fingerprint) are reported; a run may add more for timing only.
  std::size_t counted_trajectories = 1;
  double target_accuracy = 0.0;  // smoothed over the last 3 evaluations
  double accuracy_floor = 0.0;   // final accuracy must clear it (chance is 0.1)
};

// Builds a workload's definition; throws std::invalid_argument for an
// unknown name.
Workload make_workload(const std::string& name);

// Options of trajectory `index` of a run seeded with `seed`: every
// trajectory draws its own data, partition, cluster and model.
fedca::fl::ExperimentOptions trajectory_options(const Workload& workload,
                                                std::uint64_t seed, std::size_t index);

std::unique_ptr<fedca::fl::Scheme> make_scheme(const Workload& workload,
                                               std::uint64_t seed);

// Wall-clock span recorded by the benchmark around its own calls. Times are
// seconds on the program tracer's clock (obs::TraceCollector::wall_now_seconds)
// so they can be matched against the program's own wall spans. `count` is the
// number of operations the span covers (per-operation time = duration/count).
struct BenchSpan {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::size_t count = 1;
};

using SpanLog = std::vector<BenchSpan>;

double wall_now();

// Times every model layer, the training step, the loader, the conv lowering
// kernels and the cluster's lease/availability queries on a fresh setup of
// trajectory 0, recording one span per repetition into `log`:
//   probe.nn.<group>.<layer>.forward|backward   group: conv1|conv2|rnn|fc|other
//   probe.nn.compute_gradients, probe.nn.sgd_step, probe.data.next_batch
//   probe.tensor.{im2col,gemm_nt,gemm_tn,col2im}.<layer>   (one per-sample
//                                                          call each)
//   probe.sim.lease, probe.sim.online_at                     (count = calls)
void run_probe(const Workload& workload, std::uint64_t seed, SpanLog& log);

}  // namespace perfbench
