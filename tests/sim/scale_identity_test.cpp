// Million-client machinery: registry-path determinism across worker counts,
// availability outage marginal statistics, and pooled-replica rebind
// identity.
//
// A registry-backed run (sim/client_registry.hpp: POD records, devices
// materialized per lease) must produce the same global model bytes, the
// same rosters and the same virtual clock for worker counts {1, 2, 8},
// with and without availability churn.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "fl/experiment.hpp"
#include "fl/scheme.hpp"
#include "sim/availability.hpp"
#include "sim/cluster.hpp"
#include "util/rng.hpp"

namespace fedca {
namespace {

// The paper's population size (128 clients) at CI-friendly training cost:
// a 32-client sampled cohort, two local iterations, two rounds. Built
// programmatically (not from a .scn) because the tests sweep worker counts
// over the same geometry.
fl::ExperimentOptions scale_options() {
  fl::ExperimentOptions options;  // analyze:waive(scenario-hardcode)
  options.model = nn::ModelKind::kCnn;
  options.num_clients = 128;
  options.train_samples = 1280;
  options.test_samples = 16;
  options.batch_size = 8;
  options.local_iterations = 2;
  options.participation_fraction = 0.25;  // 32-client cohort per round
  options.max_rounds = 2;
  options.worker_threads = 1;
  options.seed = 97;
  return options;
}

// Everything a run can disagree on: final global model bytes, per-round
// rosters/arrivals/aggregation weights, availability accounting, and the
// virtual clock.
struct RunFingerprint {
  std::vector<float> state;
  std::vector<std::size_t> roster;          // (round-major) participant ids
  std::vector<double> arrivals;             // parallel to roster
  std::vector<fl::ClientOutcome> outcomes;  // parallel to roster
  std::vector<double> weights;              // parallel to roster
  std::vector<std::size_t> population;      // per round
  std::vector<std::size_t> offline;         // per round
  double end_time = 0.0;
};

RunFingerprint run_once(const fl::ExperimentOptions& options) {
  fl::FedAvgScheme scheme;
  fl::ExperimentSetup setup = fl::make_setup(options, scheme);
  RunFingerprint fp;
  for (std::size_t r = 0; r < options.max_rounds; ++r) {
    const fl::RoundRecord record = setup.engine->run_round();
    for (const auto& client : record.clients) {
      fp.roster.push_back(client.client_id);
      fp.arrivals.push_back(client.arrival_time);
      fp.outcomes.push_back(client.outcome);
      fp.weights.push_back(client.collected_weight);
    }
    fp.population.push_back(record.population);
    fp.offline.push_back(record.offline);
  }
  fp.state = setup.engine->global_state().flattened();
  fp.end_time = setup.engine->now();
  return fp;
}

void expect_identical(const RunFingerprint& a, const RunFingerprint& b,
                      const char* what) {
  ASSERT_EQ(a.state.size(), b.state.size()) << what;
  EXPECT_EQ(std::memcmp(a.state.data(), b.state.data(),
                        a.state.size() * sizeof(float)),
            0)
      << what << ": global model bytes differ";
  EXPECT_EQ(a.roster, b.roster) << what;
  ASSERT_EQ(a.arrivals.size(), b.arrivals.size()) << what;
  EXPECT_EQ(std::memcmp(a.arrivals.data(), b.arrivals.data(),
                        a.arrivals.size() * sizeof(double)),
            0)
      << what << ": arrival times differ";
  EXPECT_TRUE(a.outcomes == b.outcomes) << what << ": client outcomes differ";
  ASSERT_EQ(a.weights.size(), b.weights.size()) << what;
  EXPECT_EQ(std::memcmp(a.weights.data(), b.weights.data(),
                        a.weights.size() * sizeof(double)),
            0)
      << what << ": aggregation weights differ";
  EXPECT_EQ(a.population, b.population) << what;
  EXPECT_EQ(a.offline, b.offline) << what;
  EXPECT_EQ(a.end_time, b.end_time) << what;
}

TEST(ScaleIdentity, RegistryIdenticalAcrossWorkerCounts) {
  const RunFingerprint reference = run_once(scale_options());
  ASSERT_EQ(reference.roster.size(), 64u);  // 2 rounds x 32-client cohort
  for (const std::size_t workers : {1u, 2u, 8u}) {
    fl::ExperimentOptions options = scale_options();
    options.worker_threads = workers;
    expect_identical(reference, run_once(options),
                     ("workers=" + std::to_string(workers)).c_str());
  }
}

fl::ExperimentOptions churn_options() {
  fl::ExperimentOptions options;  // analyze:waive(scenario-hardcode)
  options.model = nn::ModelKind::kCnn;
  options.num_clients = 24;
  options.train_samples = 240;
  options.test_samples = 16;
  options.batch_size = 8;
  options.local_iterations = 2;
  options.max_rounds = 4;
  options.worker_threads = 1;
  options.seed = 53;
  auto& avail = options.cluster.availability;
  avail.enabled = true;
  avail.mean_on = 400.0;
  avail.mean_off = 200.0;
  avail.day_period = 2000.0;
  avail.day_amplitude = 0.3;
  avail.outage_groups = 3;
  avail.outage_rate = 0.002;
  avail.outage_mean = 100.0;
  avail.seed = 11;
  return options;
}

TEST(ScaleIdentity, AvailabilityIsDeterministicAcrossWorkers) {
  const RunFingerprint reference = run_once(churn_options());
  // The seed must actually exercise churn, or the test proves nothing.
  std::size_t total_offline = 0;
  for (const std::size_t n : reference.offline) total_offline += n;
  EXPECT_GT(total_offline, 0u) << "seed never took a client offline";
  for (const std::size_t n : reference.population) EXPECT_EQ(n, 24u);

  for (const std::size_t workers : {1u, 2u, 8u}) {
    fl::ExperimentOptions options = churn_options();
    options.worker_threads = workers;
    expect_identical(reference, run_once(options),
                     ("churn workers=" + std::to_string(workers)).c_str());
  }
}

TEST(ScaleIdentity, RenewalMarginalMatchesStationaryProbability) {
  sim::AvailabilityOptions options;
  options.enabled = true;
  options.mean_on = 600.0;
  options.mean_off = 200.0;
  options.day_amplitude = 0.0;  // pure alternating renewal
  options.outage_groups = 0;
  options.seed = 20240807;
  sim::AvailabilityModel model(options);

  const std::size_t clients = 64;
  const std::size_t steps = 500;
  const double dt = 200.0;
  std::vector<sim::AvailabilityCursor> cursors(clients);
  std::size_t online = 0;
  for (std::size_t k = 1; k <= steps; ++k) {
    for (std::size_t c = 0; c < clients; ++c) {
      if (model.online_at(c, cursors[c], static_cast<double>(k) * dt)) ++online;
    }
  }
  const double frac = static_cast<double>(online) / (clients * steps);
  // Stationary-start exponential renewal: P(online) = mean_on/(mean_on+off).
  EXPECT_NEAR(frac, 0.75, 0.02);
}

TEST(ScaleIdentity, CorrelatedOutageMarginalMatchesTheory) {
  sim::AvailabilityOptions options;
  options.enabled = true;
  options.mean_on = 600.0;
  options.mean_off = 200.0;
  options.day_amplitude = 0.0;
  options.outage_groups = 8;
  options.outage_rate = 0.001;  // mean gap 1000 s
  options.outage_mean = 200.0;
  options.seed = 20240807;
  sim::AvailabilityModel model(options);

  const std::size_t clients = 64;
  const std::size_t steps = 1000;
  const double dt = 200.0;
  std::vector<sim::AvailabilityCursor> cursors(clients);
  std::size_t online = 0;
  for (std::size_t k = 1; k <= steps; ++k) {
    for (std::size_t c = 0; c < clients; ++c) {
      if (model.online_at(c, cursors[c], static_cast<double>(k) * dt)) ++online;
    }
  }
  const double frac = static_cast<double>(online) / (clients * steps);
  // Independent thinning of the renewal marginal by the group outage
  // fraction: outage windows cover mean / (gap + mean) of the timeline.
  const double outage_frac = 200.0 / (1000.0 + 200.0);
  EXPECT_NEAR(frac, 0.75 * (1.0 - outage_frac), 0.03);
}

TEST(ScaleIdentity, DiurnalFactorShape) {
  sim::AvailabilityOptions options;
  options.enabled = true;
  options.day_period = 1000.0;
  options.day_amplitude = 0.4;
  sim::AvailabilityModel model(options);
  EXPECT_NEAR(model.diurnal(0.0), 1.0, 1e-12);
  EXPECT_NEAR(model.diurnal(250.0), 1.4, 1e-12);   // mid-day peak
  EXPECT_NEAR(model.diurnal(750.0), 0.6, 1e-12);   // mid-night trough
  options.day_amplitude = 0.0;
  sim::AvailabilityModel flat(options);
  EXPECT_EQ(flat.diurnal(123.0), 1.0);
}

TEST(ScaleIdentity, ReboundReplicaMatchesFreshDevice) {
  sim::ClusterOptions options;
  options.num_clients = 8;

  // Reference: every lease held at once, so each one is a freshly created
  // device (the pool is empty at every checkout).
  util::Rng fresh_rng(5);
  sim::Cluster fresh(options, fresh_rng);
  std::vector<sim::DeviceLease> devices;
  for (std::size_t i = 0; i < options.num_clients; ++i) {
    devices.push_back(fresh.lease(i));
  }

  util::Rng pooled_rng(5);
  sim::Cluster pooled(options, pooled_rng);
  // Pass 1: one lease at a time, so every client after the first rebinds
  // the replica the previous client returned.
  for (std::size_t i = 0; i < options.num_clients; ++i) {
    sim::DeviceLease lease = pooled.lease(i);
    EXPECT_EQ(lease->id(), i);
    EXPECT_EQ(lease->compute_finish(0.0, 1.0), devices[i]->compute_finish(0.0, 1.0))
        << "client " << i;
  }
  // Pass 2: reverse order — each lease rebinds a replica that served a
  // *different* client; behavior must still match the fresh device.
  for (std::size_t j = options.num_clients; j-- > 0;) {
    sim::DeviceLease lease = pooled.lease(j);
    EXPECT_EQ(lease->compute_finish(10.0, 2.5), devices[j]->compute_finish(10.0, 2.5))
        << "client " << j;
  }
}

}  // namespace
}  // namespace fedca
