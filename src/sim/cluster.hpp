// Simulated FL cluster: N client devices plus one server.
//
// Stands in for the paper's 128 c6i.large clients + 1 c5a.8xlarge server.
// Each client carries its heterogeneous speed profile, its dynamicity
// timeline (continuous across rounds, like a real device), and a dedicated
// rate-limited uplink/downlink. Virtual time is global and monotone for
// the lifetime of the cluster.
//
// Per-client state lives in a ClientRegistry of POD records
// (sim/client_registry.hpp); devices exist only while leased. lease(i)
// materializes a pooled replica from client i's record (re-deriving the
// speed timeline from its deterministic RNG fork and restoring persisted
// link occupancy) and returns it to the pool when the lease drops,
// committing mutable state back to the record. Memory is O(leased cohort)
// live devices + O(clients) compact records.
#pragma once

#include <memory>
#include <vector>

#include "sim/availability.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace fedca::sim {

class ClientRegistry;

struct ClusterOptions {
  std::size_t num_clients = 128;
  trace::HeterogeneityOptions heterogeneity;
  trace::DynamicityOptions dynamicity;
  // Fixed per-transfer latency on client links.
  double link_latency_seconds = 0.005;
  // Source-compatibility member only: the registry is the cluster's one
  // population representation. Existing callers (the perfbench harness)
  // still assign `compact = true`; the Cluster constructor rejects `false`
  // with std::invalid_argument, since nothing can honor it.
  bool compact = true;
  // Population availability dynamics (on/off churn, day/night modulation,
  // correlated outages). Disabled by default: engines then never query it
  // and behavior is bit-identical to a build without the layer.
  AvailabilityOptions availability;
};

// One simulated edge device.
class ClientDevice {
 public:
  ClientDevice(std::size_t id, const trace::DeviceProfile& profile,
               const trace::DynamicityOptions& dynamicity, double link_latency,
               util::Rng rng);

  std::size_t id() const { return id_; }
  const trace::DeviceProfile& profile() const { return profile_; }
  trace::SpeedTimeline& timeline() { return timeline_; }
  Link& uplink() { return uplink_; }
  Link& downlink() { return downlink_; }

  // Virtual completion time of `work` unit-speed seconds of compute
  // starting at `start` (dynamicity-aware; slowdown faults composed in
  // when an injector with slowdowns for this client is installed).
  double compute_finish(double start, double work);

  // Routes compute through the injector's slowdown windows and installs
  // the client's link-degradation windows on both link directions.
  void set_faults(std::shared_ptr<const FaultInjector> faults);

  // Re-targets this device at another client (pooled-replica path):
  // resets the profile, regenerates the speed timeline from `rng`, clears
  // both links (degradation windows and busy state) and detaches faults.
  // The result is bit-identical to a freshly constructed device.
  void rebind(std::size_t id, const trace::DeviceProfile& profile, util::Rng rng);

  // Approximate live footprint in bytes (scale bench accounting).
  std::size_t approx_bytes() const;

 private:
  std::size_t id_;
  trace::DeviceProfile profile_;
  trace::SpeedTimeline timeline_;
  Link uplink_;
  Link downlink_;
  std::shared_ptr<const FaultInjector> faults_;
};

class Cluster;

// RAII device checkout: owns a pooled replica materialized from the
// client's registry record, committed back to the record and returned to
// the pool on destruction. Leases for distinct clients may be held
// concurrently (one lease per client at a time — the engines'
// slot-exclusive training already guarantees this).
class DeviceLease {
 public:
  DeviceLease(DeviceLease&& other) noexcept = default;
  DeviceLease& operator=(DeviceLease&& other) noexcept;
  DeviceLease(const DeviceLease&) = delete;
  DeviceLease& operator=(const DeviceLease&) = delete;
  ~DeviceLease();

  ClientDevice& operator*() const { return *device_; }
  ClientDevice* operator->() const { return device_.get(); }
  ClientDevice* get() const { return device_.get(); }

 private:
  friend class Cluster;
  DeviceLease(Cluster* cluster, std::size_t id, std::unique_ptr<ClientDevice> device);
  void release();

  Cluster* cluster_ = nullptr;
  std::size_t id_ = 0;
  std::unique_ptr<ClientDevice> device_;
};

class Cluster {
 public:
  Cluster(const ClusterOptions& options, util::Rng& rng);
  ~Cluster();

  std::size_t size() const;
  // Checks out client `i`'s device (see DeviceLease). Thread-safe for
  // distinct clients.
  DeviceLease lease(std::size_t i);
  const ClusterOptions& options() const { return options_; }

  // Installs a fault injector across all devices (slowdown routing + link
  // degradation windows). Pass nullptr to run fault-free (the default).
  void install_faults(std::shared_ptr<const FaultInjector> faults);
  const std::shared_ptr<const FaultInjector>& faults() const { return faults_; }

  // Availability dynamics. online_at advances the client's renewal cursor
  // (monotone t, main thread only); always true when the layer is off.
  bool availability_enabled() const { return availability_ != nullptr; }
  bool online_at(std::size_t i, double t);

  // Bytes of live per-client state (registry records, renewal state and
  // pooled device replicas) — scale bench accounting.
  std::size_t live_client_bytes();

 private:
  friend class DeviceLease;
  void return_replica(std::size_t id, std::unique_ptr<ClientDevice> replica);

  ClusterOptions options_;
  std::unique_ptr<ClientRegistry> registry_;
  std::unique_ptr<AvailabilityModel> availability_;
  std::shared_ptr<const FaultInjector> faults_;
  // Pooled device replicas for leases.
  util::Mutex pool_mutex_;
  std::vector<std::unique_ptr<ClientDevice>> device_pool_ FEDCA_GUARDED_BY(pool_mutex_);
};

}  // namespace fedca::sim
