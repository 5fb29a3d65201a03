// The registry is the other seam file allowed to own device storage.
#include <memory>
#include <vector>

namespace fixture {
struct Registry {
  std::vector<std::unique_ptr<ClientDevice>> pool;
};
}  // namespace fixture
