// Unordered iteration in src/core, and a container of owned devices.
// Lexed, never compiled.
#include <memory>
#include <unordered_map>
#include <vector>

namespace fixture {

int total(const std::unordered_map<int, int>& m) {  // expect: unordered-iter
  // A waived declaration does not exempt iteration over the container.
  std::unordered_map<int, int> local = m;  // analyze:waive(unordered-iter) copy
  int t = 0;
  for (const auto& kv : local) t += kv.second;  // expect: unordered-iter
  return t;
}

struct Fleet {
  std::vector<std::unique_ptr<sim::ClientDevice>> fleet_;  // expect: client-container, device-seam
};

}  // namespace fixture
