#include "sim/cluster.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "sim/client_registry.hpp"

namespace fedca::sim {

ClientDevice::ClientDevice(std::size_t id, const trace::DeviceProfile& profile,
                           const trace::DynamicityOptions& dynamicity,
                           double link_latency, util::Rng rng)
    : id_(id),
      profile_(profile),
      timeline_(profile.base_speed, dynamicity, rng),
      uplink_(profile.bandwidth_mbps, link_latency),
      downlink_(profile.bandwidth_mbps, link_latency) {}

double ClientDevice::compute_finish(double start, double work) {
  // A non-finite start (e.g. a download stuck in a permanent link outage)
  // never finishes; the timeline cannot extend to infinity.
  if (!std::isfinite(start)) return start;
  if (faults_ != nullptr && faults_->has_slowdowns(id_)) {
    return faults_->compute_finish(id_, timeline_, start, work);
  }
  return timeline_.finish_time(start, work);
}

void ClientDevice::set_faults(std::shared_ptr<const FaultInjector> faults) {
  faults_ = std::move(faults);
  if (faults_ == nullptr) return;
  for (const FaultWindow& w : faults_->link_windows(id_)) {
    uplink_.add_degradation(w.start, w.end, w.factor);
    downlink_.add_degradation(w.start, w.end, w.factor);
  }
}

void ClientDevice::rebind(std::size_t id, const trace::DeviceProfile& profile,
                          util::Rng rng) {
  id_ = id;
  profile_ = profile;
  timeline_.rebind(profile.base_speed, rng);
  uplink_.rebind(profile.bandwidth_mbps);
  downlink_.rebind(profile.bandwidth_mbps);
  faults_.reset();
}

std::size_t ClientDevice::approx_bytes() const {
  std::size_t bytes = sizeof(ClientDevice);
  // The timeline's cached segments are the growing part of a live device:
  // they accumulate for as long as the simulation runs.
  bytes += timeline_.segment_capacity() * 2 * sizeof(double);
  return bytes;
}

DeviceLease::DeviceLease(Cluster* cluster, std::size_t id,
                         std::unique_ptr<ClientDevice> device)
    : cluster_(cluster), id_(id), device_(std::move(device)) {}

DeviceLease& DeviceLease::operator=(DeviceLease&& other) noexcept {
  if (this != &other) {
    release();
    cluster_ = other.cluster_;
    id_ = other.id_;
    device_ = std::move(other.device_);
  }
  return *this;
}

DeviceLease::~DeviceLease() { release(); }

void DeviceLease::release() {
  if (device_ != nullptr) cluster_->return_replica(id_, std::move(device_));
}

Cluster::Cluster(const ClusterOptions& options, util::Rng& rng) : options_(options) {
  if (!options.compact) {
    throw std::invalid_argument(
        "Cluster: compact = false is no longer supported; the client "
        "registry is the only population representation");
  }
  registry_ = std::make_unique<ClientRegistry>(options, rng);
  if (options.availability.enabled) {
    availability_ = std::make_unique<AvailabilityModel>(options.availability);
  }
}

Cluster::~Cluster() = default;

std::size_t Cluster::size() const { return registry_->size(); }

DeviceLease Cluster::lease(std::size_t i) {
  std::unique_ptr<ClientDevice> replica;
  {
    util::MutexLock lock(pool_mutex_);
    if (!device_pool_.empty()) {
      replica = std::move(device_pool_.back());
      device_pool_.pop_back();
    }
  }
  // Materialization (timeline regeneration) happens outside the pool lock.
  if (replica == nullptr) {
    replica = registry_->create(i);
  } else {
    registry_->materialize(i, *replica);
  }
  if (faults_ != nullptr) replica->set_faults(faults_);
  return DeviceLease(this, i, std::move(replica));
}

void Cluster::return_replica(std::size_t id, std::unique_ptr<ClientDevice> replica) {
  registry_->commit(id, *replica);
  util::MutexLock lock(pool_mutex_);
  device_pool_.push_back(std::move(replica));
}

void Cluster::install_faults(std::shared_ptr<const FaultInjector> faults) {
  faults_ = std::move(faults);
  if (faults_ != nullptr) {
    FEDCA_MCOUNT("faults.scheduled_events",
                 static_cast<double>(faults_->schedule().events().size()));
  }
}

bool Cluster::online_at(std::size_t i, double t) {
  if (availability_ == nullptr) return true;
  return availability_->online_at(i, registry_->record(i).availability, t);
}

std::size_t Cluster::live_client_bytes() {
  std::size_t bytes = registry_->live_bytes();
  if (availability_ != nullptr) bytes += availability_->live_bytes();
  {
    util::MutexLock lock(pool_mutex_);
    for (const auto& replica : device_pool_) {
      bytes += sizeof(replica) + replica->approx_bytes();
    }
  }
  return bytes;
}

}  // namespace fedca::sim
