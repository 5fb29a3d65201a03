// Google-benchmark microbenches of the kernels on FedCA's hot paths:
// GEMM in all three transpose variants (square sizes and the models' own
// shapes), the retained naive references (before/after comparison), the
// pool-parallel GEMM path, span kernels, the fused dense-layer helpers,
// conv2d forward/backward, the conv layout kernels (im2col, col2im), ReLU
// backward, statistical progress (Eq. 1), profiler recording, link
// throughput, speed-timeline integration, and end-to-end round throughput.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "core/progress.hpp"
#include "core/sampling_profiler.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "fl/experiment.hpp"
#include "fl/round_engine.hpp"
#include "fl/scheme.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/models.hpp"
#include "bench/common.hpp"
#include "sim/network.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd/dispatch.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace fedca;

tensor::Tensor randn(tensor::Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  tensor::Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return t;
}

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const tensor::Tensor a = randn({n, n}, 1);
  const tensor::Tensor b = randn({n, n}, 2);
  tensor::Tensor c({n, n});
  for (auto _ : state) {
    tensor::gemm(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128);

void BM_GemmNT(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const tensor::Tensor a = randn({n, n}, 1);
  const tensor::Tensor b = randn({n, n}, 2);
  tensor::Tensor c({n, n});
  for (auto _ : state) {
    tensor::gemm_nt(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmNT)->Arg(32)->Arg(64)->Arg(128);

void BM_GemmTN(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const tensor::Tensor a = randn({n, n}, 1);
  const tensor::Tensor b = randn({n, n}, 2);
  tensor::Tensor c({n, n});
  for (auto _ : state) {
    tensor::gemm_tn(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmTN)->Arg(32)->Arg(64)->Arg(128);

// GEMMs at the models' own shapes, (m, k, n) as in each variant's
// raw-pointer signature (tensor/ops.hpp): conv1's forward and weight
// gradient per sample, the LSTM's per-timestep input projection, input
// gradient and weight gradient, and fc3's forward.
using GemmFn = void (*)(std::size_t, std::size_t, std::size_t, const float*,
                        const float*, float*);
void BM_GemmShape(benchmark::State& state, GemmFn fn, std::size_t m,
                  std::size_t k, std::size_t n) {
  // Sized for every variant: B is k x n, n x k or m x n; C is m x n or k x n.
  const tensor::Tensor a = randn({m * k}, 1);
  const tensor::Tensor b = randn({std::max(k, m) * n}, 2);
  tensor::Tensor c({std::max(m, k) * n});
  for (auto _ : state) {
    fn(m, k, n, a.raw(), b.raw(), c.raw());
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * m * k * n));
}
BENCHMARK_CAPTURE(BM_GemmShape, conv1_fwd_gemm_6x75x256, &tensor::gemm, 6, 75, 256);
BENCHMARK_CAPTURE(BM_GemmShape, conv1_dw_gemm_nt_6x256x75, &tensor::gemm_nt, 6, 256, 75);
BENCHMARK_CAPTURE(BM_GemmShape, lstm_in_gemm_nt_16x8x384, &tensor::gemm_nt, 16, 8, 384);
BENCHMARK_CAPTURE(BM_GemmShape, lstm_dx_gemm_16x384x8, &tensor::gemm, 16, 384, 8);
BENCHMARK_CAPTURE(BM_GemmShape, lstm_dw_gemm_tn_16x384x8, &tensor::gemm_tn, 16, 384, 8);
BENCHMARK_CAPTURE(BM_GemmShape, fc3_gemm_nt_16x84x10, &tensor::gemm_nt, 16, 84, 10);

// The naive pre-optimization kernel, kept for honest before/after numbers.
void BM_GemmRef(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const tensor::Tensor a = randn({n, n}, 1);
  const tensor::Tensor b = randn({n, n}, 2);
  tensor::Tensor c({n, n});
  for (auto _ : state) {
    tensor::ref::gemm(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmRef)->Arg(32)->Arg(64)->Arg(128);

// Opt-in pool-parallel row-block path (bit-identical to serial).
void BM_GemmParallel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const tensor::Tensor a = randn({n, n}, 1);
  const tensor::Tensor b = randn({n, n}, 2);
  tensor::Tensor c({n, n});
  util::ThreadPool pool(0);
  tensor::set_gemm_threading(&pool, /*min_flops=*/1);
  for (auto _ : state) {
    tensor::gemm(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  tensor::set_gemm_threading(nullptr);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmParallel)->Arg(128)->Arg(256);

void BM_Axpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const tensor::Tensor x = randn({n}, 3);
  tensor::Tensor y = randn({n}, 4);
  for (auto _ : state) {
    tensor::axpy(0.5f, x.data(), y.data());
    benchmark::DoNotOptimize(y.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Axpy)->Arg(65536);

void BM_Dot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const tensor::Tensor x = randn({n}, 3);
  const tensor::Tensor y = randn({n}, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::dot(x.data(), y.data()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Dot)->Arg(65536);

void BM_L2Norm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const tensor::Tensor x = randn({n}, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::l2_norm(x.data()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_L2Norm)->Arg(65536);

void BM_Scale(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Tensor x = randn({n}, 3);
  for (auto _ : state) {
    tensor::scale(1.0000001f, x.data());
    benchmark::DoNotOptimize(x.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Scale)->Arg(65536);

void BM_BiasAdd(benchmark::State& state) {
  const std::size_t rows = 64, cols = 256;
  tensor::Tensor out = randn({rows, cols}, 5);
  const tensor::Tensor bias = randn({cols}, 6);
  for (auto _ : state) {
    tensor::bias_add(out.data(), rows, bias.data());
    benchmark::DoNotOptimize(out.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * cols));
}
BENCHMARK(BM_BiasAdd);

void BM_RowSum(benchmark::State& state) {
  const std::size_t rows = 64, cols = 256;
  const tensor::Tensor in = randn({rows, cols}, 5);
  tensor::Tensor out({cols});
  for (auto _ : state) {
    tensor::row_sum(in.data(), rows, out.data());
    benchmark::DoNotOptimize(out.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * cols));
}
BENCHMARK(BM_RowSum);

void BM_ConvForward(benchmark::State& state) {
  util::Rng rng(11);
  nn::Conv2d conv("bench", 8, 16, 16, 16, 3, 1, 1, rng);
  tensor::Tensor input = randn({8, 8, 16, 16}, 12);
  for (auto _ : state) {
    tensor::Tensor out = conv.forward(input);
    benchmark::DoNotOptimize(out.raw());
  }
}
BENCHMARK(BM_ConvForward);

void BM_ConvBackward(benchmark::State& state) {
  util::Rng rng(11);
  nn::Conv2d conv("bench", 8, 16, 16, 16, 3, 1, 1, rng);
  tensor::Tensor input = randn({8, 8, 16, 16}, 12);
  tensor::Tensor grad = randn({8, 16, 16, 16}, 13);
  conv.forward(input);
  for (auto _ : state) {
    conv.zero_grad();
    tensor::Tensor dx = conv.backward(grad);
    benchmark::DoNotOptimize(dx.raw());
  }
}
BENCHMARK(BM_ConvBackward);

// The conv layout kernels at LeNet's per-sample geometries (conv1: 3x16x16,
// conv2: 6x8x8, both 5x5 pad 2), once per sample of a batch of 16 as the
// layers run them.
constexpr std::size_t kLayoutBatch = 16;
const tensor::Conv2dGeometry kLenetConv1{3, 16, 16, 5, 5, 1, 2};
const tensor::Conv2dGeometry kLenetConv2{6, 8, 8, 5, 5, 1, 2};

std::size_t column_count(const tensor::Conv2dGeometry& geo) {
  return geo.in_channels * geo.kernel_h * geo.kernel_w * geo.out_h() * geo.out_w();
}

void BM_Im2col(benchmark::State& state, const tensor::Conv2dGeometry& geo) {
  const std::size_t image = geo.in_channels * geo.in_h * geo.in_w;
  const tensor::Tensor images = randn({kLayoutBatch, image}, 21);
  tensor::Tensor columns({column_count(geo)});
  for (auto _ : state) {
    for (std::size_t s = 0; s < kLayoutBatch; ++s) {
      tensor::im2col(images.data().subspan(s * image, image), geo, columns.data());
      benchmark::DoNotOptimize(columns.raw());
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kLayoutBatch * columns.numel()));
}
BENCHMARK_CAPTURE(BM_Im2col, conv1_3x16x16_k5p2, kLenetConv1);
BENCHMARK_CAPTURE(BM_Im2col, conv2_6x8x8_k5p2, kLenetConv2);

void BM_Col2im(benchmark::State& state, const tensor::Conv2dGeometry& geo) {
  const std::size_t image = geo.in_channels * geo.in_h * geo.in_w;
  const tensor::Tensor columns = randn({column_count(geo)}, 22);
  tensor::Tensor grads({kLayoutBatch, image});
  for (auto _ : state) {
    for (std::size_t s = 0; s < kLayoutBatch; ++s) {
      tensor::col2im(columns.data(), geo, grads.data().subspan(s * image, image));
    }
    benchmark::DoNotOptimize(grads.raw());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kLayoutBatch * columns.numel()));
}
BENCHMARK_CAPTURE(BM_Col2im, conv1_3x16x16_k5p2, kLenetConv1);
BENCHMARK_CAPTURE(BM_Col2im, conv2_6x8x8_k5p2, kLenetConv2);

// ReLU backward on normal inputs, whose signs are random as a trained
// layer's pre-activations are, at the shapes after LeNet's two convs.
void BM_ReluBackward(benchmark::State& state, std::size_t channels, std::size_t side) {
  const tensor::Tensor input = randn({kLayoutBatch, channels, side, side}, 23);
  const tensor::Tensor grad = randn({kLayoutBatch, channels, side, side}, 24);
  nn::ReLU relu;
  relu.forward(input);
  for (auto _ : state) {
    tensor::Tensor dx = relu.backward(grad);
    benchmark::DoNotOptimize(dx.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.numel()));
}
BENCHMARK_CAPTURE(BM_ReluBackward, relu1_16x6x16x16, 6, 16);
BENCHMARK_CAPTURE(BM_ReluBackward, relu2_16x16x8x8, 16, 8);

void BM_StatisticalProgress(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const tensor::Tensor gi = randn({n}, 3);
  const tensor::Tensor gk = randn({n}, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::statistical_progress(gi.data(), gk.data()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_StatisticalProgress)->Arg(1024)->Arg(65536);

void BM_ProfilerRecordIteration(benchmark::State& state) {
  util::Rng rng(5);
  nn::Classifier model = nn::build_model(nn::ModelKind::kCnn, rng);
  core::SamplingProfiler profiler(core::ProfilerOptions{}, util::Rng(6));
  profiler.begin_round(0, model.state());
  for (auto _ : state) {
    profiler.record_iteration(model.backbone());
  }
  state.counters["sampled_params"] =
      static_cast<double>(profiler.sampled_param_count());
}
BENCHMARK(BM_ProfilerRecordIteration);

void BM_CnnTrainingIteration(benchmark::State& state) {
  util::Rng rng(7);
  nn::Classifier model = nn::build_model(nn::ModelKind::kCnn, rng);
  const nn::InputGeometry geo = nn::default_geometry(nn::ModelKind::kCnn);
  tensor::Tensor input = randn({10, geo.channels, geo.height, geo.width}, 8);
  const std::vector<int> labels{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.compute_gradients(input, labels));
  }
}
BENCHMARK(BM_CnnTrainingIteration);

void BM_LinkTransmit(benchmark::State& state) {
  sim::Link link(13.7);
  double t = 0.0;
  for (auto _ : state) {
    const sim::Transfer tr = link.transmit(t, 240e3);
    t = tr.end;
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_LinkTransmit);

void BM_SpeedTimelineFinish(benchmark::State& state) {
  trace::DynamicityOptions dyn;
  trace::SpeedTimeline timeline(1.0, dyn, util::Rng(9));
  double t = 0.0;
  for (auto _ : state) {
    t = timeline.finish_time(t, 0.1);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_SpeedTimelineFinish);

// End-to-end round throughput: wall-clock per FedAvg round (real local SGD
// for every client) at the given worker count. Arg 0 = FEDCA_THREADS /
// hardware default. UseRealTime: the rounds run on pool workers, so the
// main thread's CPU time would overstate items_per_second.
void BM_RoundThroughput(benchmark::State& state) {
  fl::ExperimentOptions options;
  options.model = nn::ModelKind::kCnn;
  options.num_clients = 8;
  options.local_iterations = 5;
  options.batch_size = 16;
  options.train_samples = 800;
  options.test_samples = 32;
  options.seed = 21;
  options.worker_threads = static_cast<std::size_t>(state.range(0));
  fl::FedAvgScheme scheme;
  fl::ExperimentSetup setup = fl::make_setup(options, scheme);
  for (auto _ : state) {
    const fl::RoundRecord record = setup.engine->run_round();
    benchmark::DoNotOptimize(record.end_time);
  }
  state.counters["clients"] = static_cast<double>(options.num_clients);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(options.num_clients *
                                                    options.local_iterations));
}
BENCHMARK(BM_RoundThroughput)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

// BENCHMARK_MAIN() plus provenance: the dispatch tier and build type go
// into the JSON context so a checked-in BENCH_kernels.json says what it
// measured (tools/bench_kernels.py refuses debug-build numbers).
int main(int argc, char** argv) {
  benchmark::AddCustomContext("fedca_build_type", fedca::bench::build_type());
  benchmark::AddCustomContext("fedca_simd_tier",
                              fedca::tensor::simd::active_tier_name());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
