// Single-layer probe: times each module's public functions on a fresh setup
// of the workload, outside any round, so its numbers explain the timed run
// without perturbing it.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "data/loader.hpp"
#include "harness.hpp"
#include "nn/conv2d.hpp"
#include "nn/loss.hpp"
#include "nn/sequential.hpp"
#include "nn/sgd.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

namespace {

using namespace fedca;

constexpr std::size_t kWarmupReps = 5;
constexpr std::size_t kLayerReps = 120;
constexpr std::size_t kKernelReps = 60;
constexpr std::size_t kLoaderReps = 400;
constexpr std::size_t kSgdReps = 200;
constexpr std::size_t kLeaseReps = 10;
constexpr std::size_t kLeasesPerRep = 256;
constexpr std::size_t kOnlineReps = 10;
constexpr std::size_t kOnlinePerRep = 4096;

// Name of one backbone child, from its first parameter ("conv1.weight" ->
// "conv1"); parameterless layers are named by type and position.
struct LayerLabel {
  std::string group;  // conv1 | conv2 | rnn | fc | other
  std::string layer;
};

LayerLabel label_of(nn::Module& child, std::size_t index) {
  const std::vector<nn::Parameter*> params = child.parameters();
  if (params.empty()) {
    std::string type = child.type_name();
    std::transform(type.begin(), type.end(), type.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    return {"other", type + std::to_string(index)};
  }
  const std::string& name = params.front()->name;
  const std::string layer = name.substr(0, name.find('.'));
  if (child.type_name() == "Linear") return {"fc", layer};
  return {layer, layer};
}

// The conv lowering geometry of `conv`, recovered from the shapes it was
// built for: the weight is [out_c, C*k*k] and the output is out_h x out_w.
tensor::Conv2dGeometry conv_geometry(nn::Conv2d& conv, const tensor::Tensor& input) {
  tensor::Conv2dGeometry geo;
  geo.in_channels = input.dim(1);
  geo.in_h = input.dim(2);
  geo.in_w = input.dim(3);
  const std::size_t cols = conv.parameters().front()->value.dim(1);
  const auto k = static_cast<std::size_t>(
      std::lround(std::sqrt(static_cast<double>(cols / geo.in_channels))));
  geo.kernel_h = geo.kernel_w = k;
  for (std::size_t stride = 1; stride <= k; ++stride) {
    for (std::size_t pad = 0; pad <= k; ++pad) {
      geo.stride = stride;
      geo.pad = pad;
      if (geo.in_h + 2 * pad >= k && geo.out_h() == conv.out_h() &&
          geo.out_w() == conv.out_w()) {
        return geo;
      }
    }
  }
  throw std::runtime_error("probe: cannot recover conv geometry");
}

template <typename Fn>
void timed(SpanLog& log, const std::string& name, std::size_t count, Fn&& fn) {
  const double start = wall_now();
  fn();
  const double end = wall_now();
  log.push_back({name, start, end, count});
}

void probe_layers(nn::Classifier& model, const data::Batch& batch,
                  const nn::SgdOptions& optimizer_options, SpanLog& log) {
  auto* backbone = dynamic_cast<nn::Sequential*>(&model.backbone());
  if (backbone == nullptr) throw std::runtime_error("probe: backbone is not Sequential");
  const std::size_t n = backbone->child_count();
  std::vector<LayerLabel> labels;
  for (std::size_t i = 0; i < n; ++i) labels.push_back(label_of(backbone->child(i), i));

  std::vector<tensor::Tensor> acts(n + 1);
  acts[0] = batch.inputs;
  for (std::size_t rep = 0; rep < kWarmupReps + kLayerReps; ++rep) {
    const bool keep = rep >= kWarmupReps;
    const auto record = [&](std::size_t i, const char* pass, double start) {
      const double end = wall_now();
      if (keep) {
        log.push_back(
            {"probe.nn." + labels[i].group + "." + labels[i].layer + "." + pass, start, end});
      }
    };
    // Same work as Classifier::compute_gradients, one layer at a time.
    for (nn::Parameter* p : model.parameters()) p->grad.zero();
    for (std::size_t i = 0; i < n; ++i) {
      const double start = wall_now();
      acts[i + 1] = backbone->child(i).forward(acts[i]);
      record(i, "forward", start);
    }
    tensor::Tensor grad = nn::softmax_cross_entropy(acts[n], batch.labels).grad_logits;
    for (std::size_t i = n; i-- > 0;) {
      const double start = wall_now();
      grad = backbone->child(i).backward(grad);
      record(i, "backward", start);
    }
    // Interleaved with the layer walk so both see the same machine state.
    const double start = wall_now();
    model.compute_gradients(batch.inputs, batch.labels);
    const double end = wall_now();
    if (keep) log.push_back({"probe.nn.compute_gradients", start, end});
  }

  // Conv backward split: the GEMMs and the layout copies it runs per sample.
  for (std::size_t i = 0; i < n; ++i) {
    auto* conv = dynamic_cast<nn::Conv2d*>(&backbone->child(i));
    if (conv == nullptr) continue;
    const tensor::Conv2dGeometry geo = conv_geometry(*conv, acts[i]);
    const std::size_t out_c = conv->out_channels();
    const std::size_t spatial = geo.out_h() * geo.out_w();
    const std::size_t col_rows = geo.in_channels * geo.kernel_h * geo.kernel_w;
    const std::size_t image = geo.in_channels * geo.in_h * geo.in_w;
    const float* weight = conv->parameters().front()->value.raw();
    std::vector<float> columns(col_rows * spatial), dcols(col_rows * spatial);
    std::vector<float> dw(out_c * col_rows), grad_image(image);
    const tensor::Tensor& dy = acts[i + 1];  // any [N, out_c, oh, ow] values do
    const std::string& layer = labels[i].layer;
    for (std::size_t rep = 0; rep < kWarmupReps + kKernelReps; ++rep) {
      SpanLog scratch;
      SpanLog& sink = rep >= kWarmupReps ? log : scratch;
      for (std::size_t s = 0; s < acts[i].dim(0); ++s) {
        const float* dy_s = dy.raw() + s * out_c * spatial;
        timed(sink, "probe.tensor.im2col." + layer, 1, [&] {
          tensor::im2col(acts[i].data().subspan(s * image, image), geo, columns);
        });
        timed(sink, "probe.tensor.gemm_nt." + layer, 1, [&] {
          tensor::gemm_nt(out_c, spatial, col_rows, dy_s, columns.data(), dw.data());
        });
        timed(sink, "probe.tensor.gemm_tn." + layer, 1, [&] {
          tensor::gemm_tn(out_c, col_rows, spatial, weight, dy_s, dcols.data());
        });
        timed(sink, "probe.tensor.col2im." + layer, 1,
              [&] { tensor::col2im(dcols, geo, grad_image); });
      }
    }
  }

  nn::SgdOptimizer optimizer(model.parameters(), optimizer_options);
  for (std::size_t rep = 0; rep < kSgdReps; ++rep) {
    timed(log, "probe.nn.sgd_step", 1, [&] { optimizer.step(); });
  }
}

}  // namespace

void run_probe(const Workload& workload, std::uint64_t seed, SpanLog& log) {
  const fl::ExperimentOptions options = trajectory_options(workload, seed, 0);
  const std::unique_ptr<fl::Scheme> scheme = make_scheme(workload, options.seed);
  fl::ExperimentSetup setup = fl::make_setup(options, *scheme);

  // The largest shard, so the batch has the workload's full batch size.
  const data::Dataset* shard = &setup.shards.front();
  for (const data::Dataset& s : setup.shards) {
    if (s.size() > shard->size()) shard = &s;
  }
  data::BatchLoader loader(shard, options.batch_size, util::Rng(options.seed).fork(0xB0B));
  for (std::size_t rep = 0; rep < kLoaderReps; ++rep) {
    timed(log, "probe.data.next_batch", 1, [&] { loader.next_batch(); });
  }
  const data::Batch batch = loader.next();
  probe_layers(*setup.model, batch, options.optimizer, log);

  sim::Cluster& cluster = *setup.cluster;
  const std::size_t clients = cluster.size();
  for (std::size_t rep = 0; rep < kLeaseReps; ++rep) {
    timed(log, "probe.sim.lease", kLeasesPerRep, [&] {
      for (std::size_t k = 0; k < kLeasesPerRep; ++k) {
        sim::DeviceLease lease = cluster.lease((rep * kLeasesPerRep + k) * 7919 % clients);
      }
    });
  }
  for (std::size_t rep = 0; rep < kOnlineReps; ++rep) {
    const double t = 60.0 * static_cast<double>(rep);
    timed(log, "probe.sim.online_at", kOnlinePerRep, [&] {
      for (std::size_t k = 0; k < kOnlinePerRep; ++k) {
        cluster.online_at(k * 104729 % clients, t);
      }
    });
  }
}

}  // namespace perfbench
