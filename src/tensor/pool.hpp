// Retired tensor buffer pool. Tensor storage is a plain std::vector<float>;
// this header only keeps the pool's API for the frozen end-to-end harness
// (perfbench/harness.cpp), which still asks whether the pool is on and
// applies ExperimentOptions::tensor_pool (always 0; make_setup rejects any
// other value). Delete it with the next benchmark change.
#pragma once

namespace fedca::tensor {

struct BufferPool {
  static bool enabled() { return false; }
  static void configure_from_option(int /*option*/) {}
};

}  // namespace fedca::tensor
