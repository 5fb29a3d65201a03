// End-to-end benchmark harness: runs one workload through the public fl API
// (make_setup, RoundEngine::run_round or AsyncEngine::run_updates, model
// evaluation) and writes every raw measurement as one JSON file. run.py
// folds the file into the benchmark's metrics and checks the outputs.
//
//   fedca_perfbench --workload W --seed S --seconds T --trace 0|1 --out FILE
//
// --trace 0 times the run with the program's tracing disarmed. --trace 1
// runs one untraced trajectory, the single-layer probe, then the same
// trajectory again with obs armed (FEDCA_TRACE_DETAIL=kernels) and records
// the program's wall spans and counters.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/factory.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/pool.hpp"
#include "tensor/simd/dispatch.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace fedca;

namespace {

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kSetupRepeats = 5;
constexpr std::size_t kSmoothing = 3;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

double wall_now() { return obs::TraceCollector::wall_now_seconds(); }

// Workload definitions. Each workload fixes its worker count (kWorkers) so
// host parallelism never changes what one step does.
Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  fl::ExperimentOptions& o = w.options;
  o.worker_threads = kWorkers;
  o.tensor_pool = 0;
  o.dirichlet_alpha = 0.1;
  o.collect_fraction = 0.9;
  o.cluster.dynamicity.enabled = true;
  o.cluster.heterogeneity.bandwidth_mbps = 13.7;
  if (name == "cnn_fedca") {
    // The paper's headline setting: LeNet-5 with full FedCA (early stop,
    // int8 eager wire, retransmission), 16 clients, full participation.
    // Profiling one round in five keeps the timed steps mostly
    // early-stopped rounds, so their median is one of them rather than a
    // value between early-stopped and 640-iteration anchor rounds; the
    // lower noise lets a six-round trajectory reach the target.
    w.scheme = "fedca";
    w.fedca_period = 5;
    o.model = nn::ModelKind::kCnn;
    o.num_clients = 16;
    o.local_iterations = 40;
    o.batch_size = 16;
    o.train_samples = 2048;
    o.test_samples = 512;
    o.data_spec.noise_stddev = 0.7;
    o.optimizer = {0.05, 0.01, 0.0};
    o.eager_wire = fl::EagerWire::kInt8;
    w.warmup_steps = 1;
    w.timed_steps = 5;
    w.counted_trajectories = 7;
    w.target_accuracy = 0.5;
    w.accuracy_floor = 0.3;
  } else if (name == "lstm_async") {
    // Plain local SGD on the asynchronous engine: no conv, no FedCA policy.
    // Learning rate, weight decay and noise are the repository's LSTM
    // quick-scale defaults.
    w.scheme = "fedavg";
    w.async = true;
    o.model = nn::ModelKind::kLstm;
    o.num_clients = 16;
    o.local_iterations = 40;
    o.batch_size = 16;
    o.train_samples = 2048;
    o.test_samples = 256;
    o.data_spec.noise_stddev = 1.0;
    o.optimizer = {0.1, 0.01, 0.0};
    w.async_options.local_iterations = o.local_iterations;
    w.async_options.batch_size = o.batch_size;
    w.async_options.optimizer = o.optimizer;
    w.async_options.mix = 0.6;
    w.async_options.staleness_power = 0.5;
    w.async_options.worker_threads = kWorkers;
    w.warmup_steps = 1;
    w.timed_steps = 6;
    w.counted_trajectories = 4;
    w.target_accuracy = 0.35;
    w.accuracy_floor = 0.3;
  } else if (name == "population_fedca") {
    // A million registry-backed clients with availability churn and an
    // upload deadline; a ~64-client cohort does little SGD per round, so
    // the population machinery dominates.
    w.scheme = "fedca";
    w.fedca_period = 2;
    o.model = nn::ModelKind::kCnn;
    o.num_clients = 1'000'000;
    o.shard_pool = 64;
    o.local_iterations = 2;
    o.batch_size = 8;
    o.train_samples = 2048;
    o.test_samples = 256;
    o.data_spec.noise_stddev = 0.8;
    o.optimizer = {0.05, 0.0, 0.0};
    o.participation_fraction = 64.0 / static_cast<double>(o.num_clients);
    o.upload_timeout = 1.0;
    o.cluster.compact = true;
    sim::AvailabilityOptions& a = o.cluster.availability;
    a.enabled = true;
    a.mean_on = 600.0;
    a.mean_off = 200.0;
    a.day_period = 3600.0;
    a.day_amplitude = 0.3;
    a.outage_groups = 4;
    a.outage_rate = 0.0005;
    a.outage_mean = 120.0;
    w.warmup_steps = 1;
    w.timed_steps = 24;
    w.counted_trajectories = 8;
    w.target_accuracy = 0.3;
    w.accuracy_floor = 0.2;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

fl::ExperimentOptions trajectory_options(const Workload& workload, std::uint64_t seed,
                                         std::size_t index) {
  fl::ExperimentOptions options = workload.options;
  options.seed = splitmix64(seed * 0x100000001B3ULL + index);
  options.cluster.availability.seed = splitmix64(options.seed);
  return options;
}

std::unique_ptr<fl::Scheme> make_scheme(const Workload& workload, std::uint64_t seed) {
  util::Config config;
  if (workload.fedca_period > 0) {
    config.set("fedca_period", std::to_string(workload.fedca_period));
  }
  return core::make_scheme(workload.scheme, config, seed);
}

namespace {

// One workload instance: make_setup plus, for async workloads, the
// AsyncEngine over the same model, cluster and shards.
struct Instance {
  std::unique_ptr<fl::Scheme> scheme;
  fl::ExperimentSetup setup;
  std::unique_ptr<fl::AsyncEngine> async;
};

Instance build_instance(const Workload& workload, const fl::ExperimentOptions& options) {
  Instance instance;
  instance.scheme = make_scheme(workload, options.seed);
  instance.setup = fl::make_setup(options, *instance.scheme);
  if (workload.async) {
    instance.async = std::make_unique<fl::AsyncEngine>(
        instance.setup.model.get(), instance.setup.cluster.get(), instance.setup.shards,
        workload.async_options, util::Rng(options.seed).fork(6));
  }
  return instance;
}

// Replays make_setup's phases one by one (same RNG forks, same options) so
// each module's share of setup time can be timed from outside.
void time_setup_phases(const Workload& workload, const fl::ExperimentOptions& options,
                       SpanLog& log) {
  double t = 0.0;
  const auto mark = [&](const char* name) {
    const double now = wall_now();
    log.push_back({name, t, now});
    t = now;
  };
  tensor::BufferPool::configure_from_option(options.tensor_pool);
  std::unique_ptr<fl::Scheme> scheme = make_scheme(workload, options.seed);
  util::Rng root(options.seed);
  util::Rng model_rng = root.fork(1);
  util::Rng data_rng = root.fork(2);
  util::Rng partition_rng = root.fork(3);
  util::Rng cluster_rng = root.fork(4);
  util::Rng loader_rng = root.fork(5);
  t = wall_now();
  nn::Classifier model = nn::build_model(options.model, model_rng);
  mark("setup.model");
  data::SyntheticTask task(options.model, options.data_spec, data_rng);
  util::Rng train_rng = data_rng.fork(10);
  util::Rng test_rng = data_rng.fork(11);
  data::Dataset train = task.sample(options.train_samples, train_rng);
  data::Dataset test = task.sample(options.test_samples, test_rng);
  mark("setup.data");
  data::PartitionOptions part;
  part.num_clients = options.shard_pool > 0 ? std::min(options.shard_pool, options.num_clients)
                                            : options.num_clients;
  part.num_classes = options.data_spec.num_classes;
  part.alpha = options.dirichlet_alpha;
  part.min_examples_per_client = std::max<std::size_t>(2, options.batch_size / 2);
  std::vector<data::Dataset> shards = data::dirichlet_partition(train, part, partition_rng);
  mark("setup.partition");
  sim::ClusterOptions cluster_options = options.cluster;
  cluster_options.num_clients = options.num_clients;
  sim::Cluster cluster(cluster_options, cluster_rng);
  mark("setup.cluster");
  fl::RoundEngineOptions engine_options;
  engine_options.local_iterations = options.local_iterations;
  engine_options.batch_size = options.batch_size;
  engine_options.optimizer = options.optimizer;
  engine_options.collect_fraction = options.collect_fraction;
  engine_options.participation_fraction = options.participation_fraction;
  engine_options.upload_timeout = options.upload_timeout;
  engine_options.eager_wire = options.eager_wire;
  engine_options.worker_threads = options.worker_threads;
  fl::RoundEngine engine(&model, &cluster, shards, scheme.get(), engine_options, loader_rng);
  std::optional<fl::AsyncEngine> async;
  if (workload.async) {
    async.emplace(&model, &cluster, shards, workload.async_options,
                  util::Rng(options.seed).fork(6));
  }
  mark("setup.engine");
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

struct Trajectory {
  std::size_t index = 0;
  bool counted = false;
  // Per step, warm-up steps first.
  std::vector<double> wall_s, virtual_s, samples, iterations, attempted, delivered,
      offline, bytes_sent, eager_bytes, accuracy, virtual_end;
  double virtual_s_to_target = -1.0;  // < 0: target not reached
  double final_accuracy = 0.0;
  bool finite = true;
  std::string fingerprint;
  std::size_t live_loader_bytes = 0;
};

struct StepResult {
  double virtual_s = 0.0;
  double samples = 0.0;
  double iterations = 0.0;
  double attempted = 0.0;
  double delivered = 0.0;
  double offline = 0.0;
  double bytes_sent = 0.0;
  double eager_bytes = 0.0;
};

StepResult run_step(const Workload& workload, Instance& instance) {
  StepResult r;
  const fl::ExperimentOptions& o = workload.options;
  if (instance.async) {
    fl::AsyncEngine& engine = *instance.async;
    const double before = engine.now();
    const std::vector<fl::AsyncUpdateRecord> records = engine.run_updates(o.num_clients);
    r.virtual_s = engine.now() - before;
    for (const fl::AsyncUpdateRecord& rec : records) {
      r.attempted += 1;
      if (rec.lost) continue;
      r.delivered += 1;
      r.iterations += static_cast<double>(workload.async_options.local_iterations);
    }
    r.samples = r.iterations * static_cast<double>(workload.async_options.batch_size);
    return r;
  }
  const fl::RoundRecord record = instance.setup.engine->run_round();
  r.virtual_s = record.duration();
  r.offline = static_cast<double>(record.offline);
  const double cut = o.upload_timeout == fl::kNoDeadline
                         ? fl::kNoDeadline
                         : record.start_time + o.upload_timeout;
  for (const fl::ClientRoundResult& c : record.clients) {
    r.attempted += 1;
    r.iterations += static_cast<double>(c.iterations_run);
    r.bytes_sent += c.bytes_sent;
    r.eager_bytes += c.eager_bytes;
    if (!c.failed && std::isfinite(c.arrival_time) && c.arrival_time <= cut) {
      r.delivered += 1;
    }
  }
  r.samples = r.iterations * static_cast<double>(o.batch_size);
  return r;
}

const nn::ModelState& global_state(Instance& instance) {
  return instance.async ? instance.async->global_state()
                        : instance.setup.engine->global_state();
}

double evaluate(Instance& instance, const data::Batch& test) {
  if (!instance.async) return fl::evaluate_global(instance.setup).accuracy;
  // The async engine keeps its own global; fl::evaluate_global would load
  // the RoundEngine's global, which the async workload never trains.
  instance.async->load_global_into_model();
  return instance.setup.model->evaluate(test.inputs, test.labels).accuracy;
}

// Runs one trajectory: setup, warm-up steps, timed steps, an evaluation
// after every step. `prefix` names its spans ("" or "traced.").
Trajectory run_trajectory(const Workload& workload, std::uint64_t seed, std::size_t index,
                          SpanLog& log, const std::string& prefix) {
  Trajectory tr;
  tr.index = index;
  const fl::ExperimentOptions options = trajectory_options(workload, seed, index);
  const double setup_start = wall_now();
  Instance instance = build_instance(workload, options);
  const double setup_end = wall_now();
  log.push_back({prefix + "setup", setup_start, setup_end});
  const data::Batch test = instance.setup.test_set.as_batch();
  const bool traced = obs::TraceCollector::global().enabled();
  std::vector<double> recent;
  for (std::size_t step = 0; step < workload.warmup_steps + workload.timed_steps; ++step) {
    const double start = wall_now();
    const StepResult r = run_step(workload, instance);
    const double end = wall_now();
    log.push_back({prefix + (step < workload.warmup_steps ? "warmup" : "step"), start, end});
    // Move the recorder's ring contents into the collector between steps,
    // outside the timed region, so no ring overflows.
    if (traced) obs::TraceCollector::global().event_count();
    tr.wall_s.push_back(end - start);
    tr.virtual_s.push_back(r.virtual_s);
    tr.samples.push_back(r.samples);
    tr.iterations.push_back(r.iterations);
    tr.attempted.push_back(r.attempted);
    tr.delivered.push_back(r.delivered);
    tr.offline.push_back(r.offline);
    tr.bytes_sent.push_back(r.bytes_sent);
    tr.eager_bytes.push_back(r.eager_bytes);

    const double eval_start = wall_now();
    const double acc = evaluate(instance, test);
    const double eval_end = wall_now();
    log.push_back({prefix + "evaluate", eval_start, eval_end});
    tr.accuracy.push_back(acc);
    const double now = instance.async ? instance.async->now() : instance.setup.engine->now();
    tr.virtual_end.push_back(now);
    recent.push_back(acc);
    if (recent.size() > kSmoothing) recent.erase(recent.begin());
    const double smoothed =
        std::accumulate(recent.begin(), recent.end(), 0.0) / static_cast<double>(recent.size());
    if (tr.virtual_s_to_target < 0 && recent.size() == kSmoothing &&
        smoothed >= workload.target_accuracy) {
      tr.virtual_s_to_target = now;
    }
  }
  tr.final_accuracy = tr.accuracy.back();
  const nn::ModelState& global = global_state(instance);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < global.tensors.size(); ++i) {
    h = fnv1a(global.names[i].data(), global.names[i].size(), h);
    h = fnv1a(global.tensors[i].raw(), global.tensors[i].byte_size(), h);
    for (const float v : global.tensors[i].data()) tr.finite = tr.finite && std::isfinite(v);
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, h);
  tr.fingerprint = hex;
  if (!instance.async) tr.live_loader_bytes = instance.setup.engine->live_loader_bytes();
  return tr;
}

// --- JSON output ---

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += json_number(values[i]);
  }
  return out + "]";
}

void write_trajectory(std::ostream& os, const Trajectory& t) {
  os << "{\"index\":" << t.index << ",\"counted\":" << (t.counted ? "true" : "false")
     << ",\"wall_s\":" << json_array(t.wall_s) << ",\"virtual_s\":" << json_array(t.virtual_s)
     << ",\"samples\":" << json_array(t.samples)
     << ",\"iterations\":" << json_array(t.iterations)
     << ",\"attempted\":" << json_array(t.attempted)
     << ",\"delivered\":" << json_array(t.delivered)
     << ",\"offline\":" << json_array(t.offline)
     << ",\"bytes_sent\":" << json_array(t.bytes_sent)
     << ",\"eager_bytes\":" << json_array(t.eager_bytes)
     << ",\"accuracy\":" << json_array(t.accuracy)
     << ",\"virtual_end\":" << json_array(t.virtual_end)
     << ",\"virtual_s_to_target\":" << json_number(t.virtual_s_to_target)
     << ",\"final_accuracy\":" << json_number(t.final_accuracy)
     << ",\"finite\":" << (t.finite ? "true" : "false")
     << ",\"fingerprint\":" << json_string(t.fingerprint)
     << ",\"live_loader_bytes\":" << t.live_loader_bytes << "}";
}

void write_spans(std::ostream& os, const std::vector<BenchSpan>& spans) {
  os << "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const BenchSpan& s = spans[i];
    if (i > 0) os << ",\n";
    os << "[" << json_string(s.name) << "," << json_number(s.start * 1e6) << ","
       << json_number((s.end - s.start) * 1e6) << "," << s.count << "]";
  }
  os << "]";
}

// The program's own wall-clock spans, as [name, tid, start_us, dur_us].
void write_program_spans(std::ostream& os) {
  const std::vector<obs::TraceEvent> events = obs::TraceCollector::global().snapshot_events();
  os << "[";
  bool first = true;
  for (const obs::TraceEvent& e : events) {
    if (e.clock != obs::Clock::kWall || e.phase != 'X') continue;
    if (!first) os << ",\n";
    first = false;
    os << "[" << json_string(e.name) << "," << e.tid << "," << json_number(e.ts_us) << ","
       << json_number(e.dur_us) << "]";
  }
  os << "]";
}

void write_counters(std::ostream& os) {
  os << "{";
  bool first = true;
  for (const obs::MetricRow& row : obs::MetricsRegistry::global().snapshot()) {
    if (!first) os << ",\n";
    first = false;
    os << json_string(row.name) << ":{\"kind\":" << json_string(row.kind)
       << ",\"value\":" << json_number(row.value) << ",\"count\":" << row.count
       << ",\"p50\":" << json_number(row.p50) << "}";
  }
  os << "}";
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out") {
      args.out = value;
    } else {
      throw std::invalid_argument("unknown argument '" + key + "'");
    }
  }
  if (argc % 2 == 0 || args.workload.empty() || args.out.empty()) {
    throw std::invalid_argument(
        "usage: fedca_perfbench --workload W --seed S --seconds T --trace 0|1 --out FILE");
  }
  return args;
}

int run(const Args& args) {
  const Workload workload = make_workload(args.workload);
  SpanLog log;
  std::vector<Trajectory> trajectories;
  std::optional<Trajectory> traced;

  if (!args.trace) {
    for (std::size_t r = 0; r < kSetupRepeats; ++r) {
      const double start = wall_now();
      { Instance instance = build_instance(workload, trajectory_options(workload, args.seed, r)); }
      const double end = wall_now();
      log.push_back({"setup", start, end});
    }
    // The counted trajectories always run; further trajectories (timing
    // only) start while another one is expected to end within --seconds.
    const double begin = wall_now();
    for (std::size_t r = 0;; ++r) {
      const double elapsed = wall_now() - begin;
      if (r >= workload.counted_trajectories &&
          elapsed + elapsed / static_cast<double>(r) > args.seconds) {
        break;
      }
      trajectories.push_back(run_trajectory(workload, args.seed, r, log, ""));
      trajectories.back().counted = r < workload.counted_trajectories;
    }
  } else {
    for (std::size_t r = 0; r < kSetupRepeats; ++r) {
      time_setup_phases(workload, trajectory_options(workload, args.seed, r), log);
    }
    trajectories.push_back(run_trajectory(workload, args.seed, 0, log, ""));
    trajectories.back().counted = true;
    run_probe(workload, args.seed, log);
    // make_setup does not arm obs; the benchmark arms it itself, in memory
    // only (no trace file), and keeps its own spans beside the program's.
    setenv("FEDCA_TRACE_DETAIL", "kernels", 1);
    obs::configure();
    obs::TraceCollector::global().set_enabled(true);
    obs::set_metrics_enabled(true);
    traced = run_trajectory(workload, args.seed, 0, log, "traced.");
    traced->counted = true;
  }

  std::ofstream os(args.out);
  if (!os) throw std::runtime_error("cannot write " + args.out);
  os << "{\"workload\":" << json_string(workload.name) << ",\"seed\":" << args.seed
     << ",\"trace\":" << (args.trace ? 1 : 0) << ",\"seconds\":" << json_number(args.seconds)
     << ",\n\"provenance\":{\"build_type\":" << json_string(FEDCA_PERFBENCH_BUILD_TYPE)
     << ",\"ndebug\":"
#ifdef NDEBUG
     << "true"
#else
     << "false"
#endif
     << ",\"simd_tier\":" << json_string(tensor::simd::active_tier_name())
     << ",\"tensor_pool\":" << (tensor::BufferPool::enabled() ? "true" : "false")
     << ",\"workers\":" << util::ThreadPool::resolve_workers(workload.options.worker_threads)
     << ",\"nproc\":" << std::thread::hardware_concurrency() << "}"
     << ",\n\"schedule\":{\"warmup_steps\":" << workload.warmup_steps
     << ",\"timed_steps\":" << workload.timed_steps
     << ",\"counted_trajectories\":" << workload.counted_trajectories
     << ",\"batch_size\":" << workload.options.batch_size
     << ",\"target_accuracy\":" << json_number(workload.target_accuracy)
     << ",\"accuracy_floor\":" << json_number(workload.accuracy_floor) << "}"
     << ",\n\"peak_rss_mb\":" << json_number(peak_rss_mb()) << ",\n\"trajectories\":[";
  for (std::size_t i = 0; i < trajectories.size(); ++i) {
    if (i > 0) os << ",\n";
    write_trajectory(os, trajectories[i]);
  }
  os << "],\n\"traced\":";
  if (traced) {
    write_trajectory(os, *traced);
    os << ",\n\"program_spans\":";
    write_program_spans(os);
    os << ",\n\"counters\":";
    write_counters(os);
  } else {
    os << "null";
  }
  os << ",\n\"bench_spans\":";
  write_spans(os, log);
  os << "}\n";
  os.flush();
  if (!os) throw std::runtime_error("write failed: " + args.out);
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  const std::string build_type = FEDCA_PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  std::cerr << "fedca_perfbench: refusing to measure a build without NDEBUG\n";
  return 2;
#endif
  if (build_type != "Release") {
    std::cerr << "fedca_perfbench: refusing to measure a '" << build_type
              << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "fedca_perfbench: " << e.what() << "\n";
    return 1;
  }
}
