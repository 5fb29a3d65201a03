// Observability harness — drives the flight recorder and the run report
// pipeline for tools/bench_obs.py and the golden-report ctest. Modes:
//
//   mode=events   threads=T count=N
//       Raw recorder throughput: T producer threads each push N span
//       events through obs::Recorder (lock-free rings + volunteer
//       drain into a counting sink). Prints events/sec and the exact
//       drop accounting.
//   mode=overhead trace=0|1 rounds=R [workers=W]
//       Wall-seconds of R steady-state FedCA rounds with the tracer
//       (and per-kernel spans) fully on vs fully off — the ≤5% hot-loop
//       overhead gate.
//   mode=identity trace=0|1 workers=W rounds=R [scenario=...]
//       FNV-1a fingerprint of the global model after R rounds — must be
//       byte-identical across workers {1,2,8} and recorder on/off.
//   mode=report   scenario=faultfree|faults out=PATH [rounds=R]
//       Runs a fixed seeded scenario with the run-report armed, writing
//       run_report.jsonl to PATH (round lines from the round engine plus
//       a short async-engine segment). tools/report.py validates and
//       digests the file against the committed goldens.
//
// Wall-clock use here is the point of the bench (real overhead), so this
// file is outside the src/-scoped wall-clock lint rule.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "core/factory.hpp"
#include "fl/async_engine.hpp"
#include "obs/recorder.hpp"
#include "obs/round_report.hpp"
#include "obs/trace.hpp"
#include "tensor/simd/dispatch.hpp"

namespace {

using namespace fedca;

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t state_fingerprint(const nn::ModelState& state) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < state.tensors.size(); ++i) {
    const std::string& name = state.names[i];
    h = fnv1a(name.data(), name.size(), h);
    h = fnv1a(state.tensors[i].raw(), state.tensors[i].byte_size(), h);
  }
  return h;
}

// Fixed seeded geometry shared by the overhead/identity/report modes:
// small enough for ctest, rich enough to exercise early stops, eager
// layers, shedding, and (scenario=faults) the PR2-style fault schedule.
fl::ExperimentOptions scenario_options(const std::string& scenario,
                                       std::size_t workers) {
  fl::ExperimentOptions options;
  options.model = nn::ModelKind::kCnn;
  options.num_clients = 8;
  options.local_iterations = 6;
  options.batch_size = 16;
  options.train_samples = 640;
  options.test_samples = 32;
  options.collect_fraction = 0.75;  // shed outcomes in every round
  options.seed = 33;
  options.worker_threads = workers;
  if (scenario == "faults") {
    // Horizon matched to the scenario's virtual timescale (~8 rounds in
    // ~8 virtual seconds) so crashes and dropout windows actually land
    // inside the run.
    options.faults.enabled = true;
    options.faults.horizon_seconds = 8.0;
    options.faults.crash_fraction = 0.25;
    options.faults.dropouts_per_client = 1.0;
    options.faults.dropout_mean_seconds = 1.0;
    options.faults.eager_loss_probability = 0.15;
    options.faults.seed = 7;
  }
  return options;
}

int run_events(const util::Config& config) {
  const auto threads = static_cast<std::size_t>(config.get_int("threads", 4));
  const auto count = static_cast<std::size_t>(config.get_int("count", 500000));
  obs::Recorder& recorder = obs::Recorder::global();
  std::atomic<std::uint64_t> drained{0};
  recorder.set_auto_drain_sink([&drained](const obs::RecorderEvent&) {
    drained.fetch_add(1, std::memory_order_relaxed);
  });

  obs::RecorderEvent proto{};
  proto.kind = obs::RecordKind::kSpan;
  proto.pid = 1;
  std::snprintf(proto.name, sizeof(proto.name), "bench.span");
  obs::append_arg(proto, "client", "7");

  const double start = wall_seconds();
  std::vector<std::thread> producers;
  producers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    producers.emplace_back([&recorder, proto, count] {
      obs::RecorderEvent event = proto;
      for (std::size_t i = 0; i < count; ++i) {
        event.t0 = static_cast<double>(i);
        event.t1 = event.t0 + 1.0;
        recorder.record(event);
      }
    });
  }
  for (auto& t : producers) t.join();
  recorder.drain([&drained](const obs::RecorderEvent&) {
    drained.fetch_add(1, std::memory_order_relaxed);
  });
  const double seconds = wall_seconds() - start;

  const std::uint64_t total =
      static_cast<std::uint64_t>(threads) * static_cast<std::uint64_t>(count);
  std::printf(
      "{\"mode\":\"events\",\"build_type\":\"%s\",\"simd_tier\":\"%s\","
      "\"threads\":%zu,\"count\":%zu,"
      "\"seconds\":%.6f,\"events_per_second\":%.1f,"
      "\"drained\":%llu,\"dropped\":%llu}\n",
      bench::build_type(), tensor::simd::active_tier_name(),
      threads, count, seconds,
      static_cast<double>(total) / (seconds > 0.0 ? seconds : 1e-9),
      static_cast<unsigned long long>(drained.load()),
      static_cast<unsigned long long>(recorder.dropped_total()));
  return 0;
}

int run_overhead(const util::Config& config) {
  const bool trace = config.get_int("trace", 0) != 0;
  const auto rounds = static_cast<std::size_t>(config.get_int("rounds", 8));
  const auto warmup = static_cast<std::size_t>(config.get_int("warmup", 2));
  const auto workers = static_cast<std::size_t>(config.get_int("workers", 1));

  obs::TraceCollector& collector = obs::TraceCollector::global();
  if (trace) {
    collector.set_enabled(true);
    collector.set_kernel_detail(true);  // worst case: per-SGD-step spans
  }

  fl::ExperimentOptions options = scenario_options("faultfree", workers);
  std::unique_ptr<fl::Scheme> scheme = core::make_scheme("fedca", config, 1);
  fl::ExperimentSetup setup = fl::make_setup(options, *scheme);
  for (std::size_t r = 0; r < warmup; ++r) setup.engine->run_round();

  const double start = wall_seconds();
  for (std::size_t r = 0; r < rounds; ++r) setup.engine->run_round();
  const double seconds = wall_seconds() - start;

  std::printf(
      "{\"mode\":\"overhead\",\"build_type\":\"%s\",\"simd_tier\":\"%s\","
      "\"trace\":%d,\"rounds\":%zu,\"workers\":%zu,"
      "\"seconds\":%.6f,\"events\":%zu,\"dropped\":%llu}\n",
      bench::build_type(), tensor::simd::active_tier_name(),
      trace ? 1 : 0, rounds, workers, seconds,
      trace ? collector.event_count() : 0,
      static_cast<unsigned long long>(obs::Recorder::global().dropped_total()));
  return 0;
}

int run_identity(const util::Config& config) {
  const bool trace = config.get_int("trace", 0) != 0;
  const auto rounds = static_cast<std::size_t>(config.get_int("rounds", 4));
  const auto workers = static_cast<std::size_t>(config.get_int("workers", 1));
  const std::string scenario = config.get_string("scenario", "faultfree");

  if (trace) {
    obs::TraceCollector::global().set_enabled(true);
    obs::TraceCollector::global().set_kernel_detail(true);
  }

  fl::ExperimentOptions options = scenario_options(scenario, workers);
  std::unique_ptr<fl::Scheme> scheme = core::make_scheme("fedca", config, 1);
  fl::ExperimentSetup setup = fl::make_setup(options, *scheme);
  for (std::size_t r = 0; r < rounds; ++r) setup.engine->run_round();

  std::printf(
      "{\"mode\":\"identity\",\"build_type\":\"%s\",\"simd_tier\":\"%s\","
      "\"scenario\":\"%s\",\"trace\":%d,"
      "\"workers\":%zu,\"rounds\":%zu,\"fingerprint\":\"%016llx\"}\n",
      bench::build_type(), tensor::simd::active_tier_name(),
      scenario.c_str(), trace ? 1 : 0, workers, rounds,
      static_cast<unsigned long long>(
          state_fingerprint(setup.engine->global_state())));
  return 0;
}

int run_report(const util::Config& config) {
  const std::string scenario = config.get_string("scenario", "faultfree");
  const std::string out = config.get_string("out", "run_report.jsonl");
  const auto rounds = static_cast<std::size_t>(config.get_int("rounds", 4));
  const auto workers = static_cast<std::size_t>(config.get_int("workers", 1));
  const auto updates = static_cast<std::size_t>(config.get_int("updates", 16));

  obs::configure("", "", out);

  fl::ExperimentOptions options = scenario_options(scenario, workers);
  std::unique_ptr<fl::Scheme> scheme = core::make_scheme("fedca", config, 1);
  fl::ExperimentSetup setup = fl::make_setup(options, *scheme);
  for (std::size_t r = 0; r < rounds; ++r) setup.engine->run_round();

  // A short async segment on the same cluster so the golden also covers
  // async_update lines (applied + lost/crash/dropout under `faults`).
  if (updates > 0) {
    fl::AsyncEngineOptions async_options;
    async_options.local_iterations = 4;
    async_options.batch_size = options.batch_size;
    async_options.cycle_timeout = 7.0;  // just above the typical ~5.7s cycle
    async_options.worker_threads = workers;
    fl::AsyncEngine async(setup.model.get(), setup.cluster.get(), setup.shards,
                          async_options, util::Rng(options.seed ^ 0xA5));
    async.run_updates(updates);
  }

  obs::RoundReportWriter& reporter = obs::RoundReportWriter::global();
  std::printf(
      "{\"mode\":\"report\",\"build_type\":\"%s\",\"simd_tier\":\"%s\","
      "\"scenario\":\"%s\",\"out\":\"%s\",\"lines\":%zu}\n",
      bench::build_type(), tensor::simd::active_tier_name(), scenario.c_str(),
      out.c_str(), reporter.line_count());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Config config = bench::parse_config(argc, argv);
  const std::string mode = config.get_string("mode", "events");
  if (mode == "events") return run_events(config);
  if (mode == "overhead") return run_overhead(config);
  if (mode == "identity") return run_identity(config);
  if (mode == "report") return run_report(config);
  std::fprintf(stderr, "obs_harness: unknown mode '%s'\n", mode.c_str());
  return 2;
}
