// Tests may build tiny fixed populations directly: client-container and
// device-seam only read src/.
#include <vector>

namespace fixture {
std::vector<sim::ClientDevice> two_devices;
}  // namespace fixture
