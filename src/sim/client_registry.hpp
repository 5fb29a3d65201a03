// Compact sharded client population: POD records + lazy materialization.
//
// A live ClientDevice per client — speed timeline segments, link objects,
// degradation windows — would be O(N) objects and make million-client
// populations impractical. The registry keeps one POD ClientRecord per
// client instead:
//
//   * the client's static profile scalar (base_speed; bandwidth/latency
//     are population-wide options),
//   * the persisted link occupancy (uplink/downlink busy_until — the only
//     device state that must survive between leases; the speed timeline is
//     a pure function of the client's deterministic RNG fork and is
//     regenerated on demand),
//   * the availability renewal cursor (sim/availability.hpp).
//
// materialize() rebinds a pooled ClientDevice replica to a record,
// re-deriving the per-client RNG stream as fork(0x5EED0000 + i) of the
// post-synthesis parent state, so every lease of client i sees the same
// device a freshly constructed one would be. commit() writes the
// lease-mutable state back.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "sim/availability.hpp"
#include "sim/cluster.hpp"
#include "util/rng.hpp"

namespace fedca::sim {

// Per-client compact state: ~96 bytes instead of a multi-KB live device.
struct ClientRecord {
  double base_speed = 1.0;
  double uplink_busy = 0.0;
  double downlink_busy = 0.0;
  AvailabilityCursor availability;
};

class ClientRegistry {
 public:
  // Profile synthesis advances `rng` by reference; per-client device
  // streams are pure forks of the state it leaves behind.
  ClientRegistry(const ClusterOptions& options, util::Rng& rng);

  std::size_t size() const { return records_.size(); }

  ClientRecord& record(std::size_t i) { return records_.at(i); }
  const ClientRecord& record(std::size_t i) const { return records_.at(i); }

  // Builds a fresh device for client `i` (pool miss).
  std::unique_ptr<ClientDevice> create(std::size_t i) const;
  // Rebinds a pooled replica to client `i` (pool hit). Both paths restore
  // the record's persisted link occupancy.
  void materialize(std::size_t i, ClientDevice& device) const;
  // Writes the lease-mutable device state back into the record.
  void commit(std::size_t i, ClientDevice& device);

  std::size_t live_bytes() const {
    return sizeof(ClientRegistry) + records_.capacity() * sizeof(ClientRecord);
  }

 private:
  trace::DeviceProfile profile_of(std::size_t i) const;

  trace::DynamicityOptions dynamicity_;
  double link_latency_;
  double bandwidth_mbps_;
  // Parent generator snapshot taken after profile synthesis — per-client
  // streams are fork(0x5EED0000 + i) of this state.
  util::Rng device_parent_;
  std::vector<ClientRecord> records_;
};

}  // namespace fedca::sim
