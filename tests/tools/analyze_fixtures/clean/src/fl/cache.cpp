// Correct waiver use in an output layer, plus two patterns that must not
// match: a float accumulator outside src/tensor and src/nn, and library
// code constructing its own options type.
#include <memory>
#include <unordered_map>
#include <vector>

namespace fixture {

std::unordered_map<int, double> cache;  // analyze:waive(unordered-iter) lookup-only

struct ReplicaPool {
  // analyze:waive(client-container, device-seam) bounded by worker count
  std::vector<std::unique_ptr<sim::ClientDevice>> pool_;
};

float total(const float* a, int n) {
  float sum = 0.0f;
  for (int i = 0; i < n; ++i) sum += a[i];
  return sum;
}

ExperimentOptions defaults;

double when(const Cluster& c) { return c.now(); }  // virtual clock

}  // namespace fixture
