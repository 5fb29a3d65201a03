// End-to-end experiment driver: dataset synthesis, partitioning, cluster
// construction, round loop, evaluation, and time-to-accuracy accounting.
//
// This is the harness behind Fig. 7 / Table 1 and every downstream bench:
// run a scheme on a workload until the target accuracy (or a round cap),
// recording the accuracy trajectory over *virtual* time plus every round's
// RoundRecord (per-client outcomes, early-stop moments, eager
// transmissions) that Figs. 8-10 consume.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "fl/round_engine.hpp"
#include "fl/scheme.hpp"
#include "nn/models.hpp"
#include "sim/cluster.hpp"

namespace fedca::fl {

struct ExperimentOptions {
  nn::ModelKind model = nn::ModelKind::kCnn;
  std::size_t num_clients = 24;
  // Number of distinct data shards. 0 (default) partitions one shard per
  // client; a smaller pool lets million-client populations share shards
  // (client c reads shard c % shard_pool) so data stays O(pool), not
  // O(clients).
  std::size_t shard_pool = 0;
  std::size_t local_iterations = 40;   // K
  std::size_t batch_size = 16;
  double dirichlet_alpha = 0.1;
  std::size_t train_samples = 3000;
  std::size_t test_samples = 512;
  data::SyntheticSpec data_spec;       // num_classes/noise; samples overridden
  nn::SgdOptions optimizer{0.05, 0.0, 0.0};
  double collect_fraction = 0.9;
  // Fraction of clients selected each round (1.0 = full participation,
  // the paper's setting; < 1 enables Oort-style partial participation).
  double participation_fraction = 1.0;
  // Round-relative upload cut-off (see RoundEngineOptions::upload_timeout).
  double upload_timeout = kNoDeadline;
  // Wire format for eager layer transmissions (see
  // RoundEngineOptions::eager_wire): kInt8 quantizes each eager layer to
  // int8 codes, ~4x fewer bytes, residual corrected by error feedback.
  EagerWire eager_wire = EagerWire::kFp32;
  // Fault injection (disabled by default: `faults.enabled == false` keeps
  // the run bit-identical to a build without the fault layer).
  sim::FaultScheduleOptions faults;
  std::size_t max_rounds = 150;
  // Stop as soon as the smoothed accuracy reaches this value; <= 0 runs to
  // max_rounds.
  double target_accuracy = 0.0;
  std::size_t accuracy_smoothing = 3;  // rounds averaged for the stop check
  std::size_t eval_every = 1;          // rounds between evaluations
  sim::ClusterOptions cluster;
  // Worker threads for concurrent client training (see
  // RoundEngineOptions::worker_threads): 0 = FEDCA_THREADS env var or
  // hardware concurrency, 1 = serial. Output is bit-identical either way.
  std::size_t worker_threads = 0;
  // Retired tensor buffer pool. Kept only because the frozen perfbench
  // harness still assigns 0; make_setup rejects any other value.
  int tensor_pool = 0;
  std::uint64_t seed = 42;
  // Observability. Non-empty paths arm the corresponding output; the
  // FEDCA_TRACE / FEDCA_METRICS / FEDCA_REPORT environment variables fill
  // any left empty here (explicit options win). Tracing, metrics and the
  // round report have near-zero cost when disarmed.
  std::string trace_path;
  std::string metrics_path;
  std::string report_path;  // run_report.jsonl (see fl/run_report.hpp)
};

struct ExperimentResult {
  std::string scheme_name;
  std::string model_name;
  std::vector<EvalPoint> curve;          // accuracy trajectory
  // Every round's record as the engine decided it, with the update
  // tensors released (empty applied_update and eager values).
  std::vector<RoundRecord> rounds;
  bool reached_target = false;
  double time_to_target = 0.0;           // virtual seconds (valid if reached)
  std::size_t rounds_to_target = 0;
  double total_time = 0.0;               // virtual end time of the run
  double mean_round_seconds = 0.0;
  double final_accuracy = 0.0;

  // Flattened behaviour samples for Fig. 8-style CDFs.
  std::vector<double> early_stop_iterations() const;
  // Eager-transmission trigger iterations; when `effective_with_retrans` a
  // retransmitted layer counts at the client's last iteration (as in
  // Fig. 8b), otherwise at its original trigger iteration.
  std::vector<double> eager_iterations(bool effective_with_retrans) const;
};

// Runs one experiment. The scheme is owned by the caller (schemes are
// stateful; use a fresh instance per run).
ExperimentResult run_experiment(const ExperimentOptions& options, Scheme& scheme);

// Shared plumbing for benches that drive rounds manually (fig2-fig5).
struct ExperimentSetup {
  std::unique_ptr<nn::Classifier> model;
  std::unique_ptr<sim::Cluster> cluster;
  std::vector<data::Dataset> shards;
  data::Dataset test_set;
  std::unique_ptr<RoundEngine> engine;  // wired to `scheme`
  // Non-null iff options.faults.enabled; also installed on `cluster`.
  std::shared_ptr<const sim::FaultInjector> faults;
};

ExperimentSetup make_setup(const ExperimentOptions& options, Scheme& scheme);

// Evaluates the current global model of `setup` on its test set.
nn::Classifier::EvalResult evaluate_global(ExperimentSetup& setup);

}  // namespace fedca::fl
