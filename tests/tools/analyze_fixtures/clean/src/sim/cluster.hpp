// The seam file may own ClientDevice storage and hand devices out.
#pragma once

#include <vector>

namespace fixture {

struct ClientDevice {
  double weight = 0.0;
};

struct Cluster {
  std::vector<ClientDevice> devices;
  ClientDevice& device(int id) { return devices[static_cast<size_t>(id)]; }
};

}  // namespace fixture
