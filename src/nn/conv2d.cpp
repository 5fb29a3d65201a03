#include "nn/conv2d.hpp"

#include <limits>
#include <stdexcept>

#include "obs/trace.hpp"
#include "tensor/init.hpp"

namespace fedca::nn {

namespace {

void require_nchw(const Tensor& t, std::size_t c, std::size_t h, std::size_t w,
                  const char* who) {
  if (t.ndim() != 4 || t.dim(1) != c || t.dim(2) != h || t.dim(3) != w) {
    throw std::invalid_argument(std::string(who) + ": expected [N, " + std::to_string(c) +
                                ", " + std::to_string(h) + ", " + std::to_string(w) +
                                "], got " + tensor::shape_to_string(t.shape()));
  }
}

}  // namespace

Conv2d::Conv2d(std::string name_prefix, std::size_t in_channels, std::size_t out_channels,
               std::size_t in_h, std::size_t in_w, std::size_t kernel, std::size_t stride,
               std::size_t pad, util::Rng& rng, bool bias)
    : out_channels_(out_channels),
      geo_{in_channels, in_h, in_w, kernel, kernel, stride, pad},
      weight_(name_prefix + ".weight",
              Tensor({out_channels, in_channels * kernel * kernel})),
      has_bias_(bias) {
  const std::size_t fan_in = in_channels * kernel * kernel;
  tensor::kaiming_normal(weight_.value, fan_in, rng);
  if (has_bias_) {
    bias_ = Parameter(name_prefix + ".bias", Tensor({out_channels}));
    tensor::fanin_uniform(bias_.value, fan_in, rng);
  }
}

Tensor Conv2d::forward(const Tensor& input) {
  FEDCA_KERNEL_SPAN("conv2d.forward");
  require_nchw(input, geo_.in_channels, geo_.in_h, geo_.in_w, "Conv2d::forward");
  const std::size_t n = input.dim(0);
  const std::size_t oh = geo_.out_h(), ow = geo_.out_w();
  const std::size_t col_rows = geo_.in_channels * geo_.kernel_h * geo_.kernel_w;
  const std::size_t image_size = geo_.in_channels * geo_.in_h * geo_.in_w;

  cached_batch_ = n;
  cached_input_ = input;
  if (scratch_columns_.numel() != col_rows * oh * ow) {
    scratch_columns_ = Tensor({col_rows, oh * ow});
  }

  Tensor output({n, out_channels_, oh, ow});
  for (std::size_t s = 0; s < n; ++s) {
    tensor::im2col(input.data().subspan(s * image_size, image_size), geo_,
                   scratch_columns_.data());
    float* out_ptr = output.raw() + s * out_channels_ * oh * ow;
    tensor::gemm(out_channels_, col_rows, oh * ow, weight_.value.raw(),
                 scratch_columns_.raw(), out_ptr);
    if (has_bias_) {
      for (std::size_t c = 0; c < out_channels_; ++c) {
        const float b = bias_.value[c];
        float* dst = out_ptr + c * oh * ow;
        for (std::size_t i = 0; i < oh * ow; ++i) dst[i] += b;
      }
    }
  }
  return output;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  FEDCA_KERNEL_SPAN("conv2d.backward");
  const std::size_t oh = geo_.out_h(), ow = geo_.out_w();
  require_nchw(grad_output, out_channels_, oh, ow, "Conv2d::backward");
  const std::size_t n = grad_output.dim(0);
  if (n != cached_batch_) {
    throw std::logic_error("Conv2d::backward called with batch different from forward");
  }
  const std::size_t col_rows = geo_.in_channels * geo_.kernel_h * geo_.kernel_w;
  const std::size_t image_size = geo_.in_channels * geo_.in_h * geo_.in_w;

  Tensor grad_input;
  if (input_grad_needed_) {
    grad_input = Tensor({n, geo_.in_channels, geo_.in_h, geo_.in_w});
    if (scratch_dcols_.numel() != col_rows * oh * ow) {
      scratch_dcols_ = Tensor({col_rows, oh * ow});
    }
  }
  if (scratch_dw_.numel() != out_channels_ * col_rows) {
    scratch_dw_ = Tensor({out_channels_, col_rows});
  }
  for (std::size_t s = 0; s < n; ++s) {
    // Recompute this sample's im2col panel from the cached input — a pure
    // function of (input, geometry), so the gradients are bit-identical to
    // the old keep-every-panel scheme.
    tensor::im2col(cached_input_.data().subspan(s * image_size, image_size), geo_,
                   scratch_columns_.data());
    const float* dy = grad_output.raw() + s * out_channels_ * oh * ow;
    // dW += dY * cols^T (dY slice is already a contiguous [out_c, oh*ow]
    // matrix — no staging copy needed).
    tensor::gemm_nt(out_channels_, oh * ow, col_rows, dy, scratch_columns_.raw(),
                    scratch_dw_.raw());
    tensor::add_scaled(weight_.grad, 1.0f, scratch_dw_);
    if (has_bias_) {
      for (std::size_t c = 0; c < out_channels_; ++c) {
        double acc = 0.0;
        for (std::size_t i = 0; i < oh * ow; ++i) acc += dy[c * oh * ow + i];
        bias_.grad[c] += static_cast<float>(acc);
      }
    }
    if (!input_grad_needed_) continue;
    // dcols = W^T * dY, then scatter back to image layout.
    tensor::gemm_tn(out_channels_, col_rows, oh * ow, weight_.value.raw(), dy,
                    scratch_dcols_.raw());
    tensor::col2im(scratch_dcols_.data(), geo_,
                   grad_input.data().subspan(s * image_size, image_size));
  }
  return grad_input;
}

std::vector<Parameter*> Conv2d::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

MaxPool2d::MaxPool2d(std::size_t channels, std::size_t in_h, std::size_t in_w,
                     std::size_t window)
    : channels_(channels), in_h_(in_h), in_w_(in_w), window_(window) {
  if (window == 0 || in_h % window != 0 || in_w % window != 0) {
    throw std::invalid_argument("MaxPool2d: window must evenly divide input dims");
  }
}

Tensor MaxPool2d::forward(const Tensor& input) {
  require_nchw(input, channels_, in_h_, in_w_, "MaxPool2d::forward");
  const std::size_t n = input.dim(0);
  const std::size_t oh = out_h(), ow = out_w();
  cached_batch_ = n;
  argmax_.assign(n * channels_ * oh * ow, 0);

  Tensor output({n, channels_, oh, ow});
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t c = 0; c < channels_; ++c) {
      const std::size_t plane = (s * channels_ + c) * in_h_ * in_w_;
      const std::size_t out_plane = (s * channels_ + c) * oh * ow;
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t x = 0; x < ow; ++x) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t dy = 0; dy < window_; ++dy) {
            for (std::size_t dx = 0; dx < window_; ++dx) {
              const std::size_t idx =
                  plane + (y * window_ + dy) * in_w_ + (x * window_ + dx);
              if (input[idx] > best) {
                best = input[idx];
                best_idx = idx;
              }
            }
          }
          output[out_plane + y * ow + x] = best;
          argmax_[out_plane + y * ow + x] = best_idx;
        }
      }
    }
  }
  return output;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  const std::size_t oh = out_h(), ow = out_w();
  require_nchw(grad_output, channels_, oh, ow, "MaxPool2d::backward");
  if (grad_output.dim(0) != cached_batch_) {
    throw std::logic_error("MaxPool2d::backward batch mismatch");
  }
  Tensor grad_input({cached_batch_, channels_, in_h_, in_w_});
  for (std::size_t i = 0; i < grad_output.numel(); ++i) {
    grad_input[argmax_[i]] += grad_output[i];
  }
  return grad_input;
}

GlobalAvgPool::GlobalAvgPool(std::size_t channels, std::size_t in_h, std::size_t in_w)
    : channels_(channels), in_h_(in_h), in_w_(in_w) {}

Tensor GlobalAvgPool::forward(const Tensor& input) {
  require_nchw(input, channels_, in_h_, in_w_, "GlobalAvgPool::forward");
  const std::size_t n = input.dim(0);
  cached_batch_ = n;
  const auto plane = static_cast<double>(in_h_ * in_w_);
  Tensor output({n, channels_});
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t c = 0; c < channels_; ++c) {
      const float* src = input.raw() + (s * channels_ + c) * in_h_ * in_w_;
      double acc = 0.0;
      for (std::size_t i = 0; i < in_h_ * in_w_; ++i) acc += src[i];
      output[s * channels_ + c] = static_cast<float>(acc / plane);
    }
  }
  return output;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  if (grad_output.ndim() != 2 || grad_output.dim(0) != cached_batch_ ||
      grad_output.dim(1) != channels_) {
    throw std::invalid_argument("GlobalAvgPool::backward shape mismatch");
  }
  const float inv = 1.0f / static_cast<float>(in_h_ * in_w_);
  Tensor grad_input({cached_batch_, channels_, in_h_, in_w_});
  for (std::size_t s = 0; s < cached_batch_; ++s) {
    for (std::size_t c = 0; c < channels_; ++c) {
      const float g = grad_output[s * channels_ + c] * inv;
      float* dst = grad_input.raw() + (s * channels_ + c) * in_h_ * in_w_;
      for (std::size_t i = 0; i < in_h_ * in_w_; ++i) dst[i] = g;
    }
  }
  return grad_input;
}

}  // namespace fedca::nn
