// 2-D convolution and pooling layers over [N, C, H, W] tensors.
#pragma once

#include <vector>

#include "nn/module.hpp"
#include "tensor/ops.hpp"

namespace fedca::nn {

// Convolution via im2col + GEMM. Weight layout: [out_channels,
// in_channels * kh * kw]; bias: [out_channels].
class Conv2d : public Module {
 public:
  Conv2d(std::string name_prefix, std::size_t in_channels, std::size_t out_channels,
         std::size_t in_h, std::size_t in_w, std::size_t kernel, std::size_t stride,
         std::size_t pad, util::Rng& rng, bool bias = true);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string type_name() const override { return "Conv2d"; }
  // When not needed, backward() skips the W^T * dY product and col2im.
  void set_input_grad_needed(bool needed) override { input_grad_needed_ = needed; }
  std::unique_ptr<Module> clone() const override { return std::make_unique<Conv2d>(*this); }

  std::size_t out_channels() const { return out_channels_; }
  std::size_t out_h() const { return geo_.out_h(); }
  std::size_t out_w() const { return geo_.out_w(); }

 private:
  std::size_t out_channels_;
  tensor::Conv2dGeometry geo_;
  Parameter weight_;  // [out_c, in_c*kh*kw]
  Parameter bias_;    // [out_c]
  bool has_bias_;
  bool input_grad_needed_ = true;
  // Forward caches the raw input (one image per sample) and recomputes
  // im2col in backward into the single reused scratch panel below —
  // activation memory is ~kernel_area x batch smaller than keeping one
  // column matrix per sample, at the cost of one extra im2col per sample
  // per backward (im2col is a copy; the GEMMs dominate).
  Tensor cached_input_;     // [N, C, H, W]
  Tensor scratch_columns_;  // [in_c*kh*kw, oh*ow], reused across samples
  Tensor scratch_dw_;       // [out_c, in_c*kh*kw]
  Tensor scratch_dcols_;    // [in_c*kh*kw, oh*ow]
  std::size_t cached_batch_ = 0;
};

// 2x2-style max pooling with stride == window. Caches argmax indices.
class MaxPool2d : public Module {
 public:
  MaxPool2d(std::size_t channels, std::size_t in_h, std::size_t in_w, std::size_t window);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string type_name() const override { return "MaxPool2d"; }
  std::unique_ptr<Module> clone() const override { return std::make_unique<MaxPool2d>(*this); }

  std::size_t out_h() const { return in_h_ / window_; }
  std::size_t out_w() const { return in_w_ / window_; }

 private:
  std::size_t channels_, in_h_, in_w_, window_;
  std::vector<std::size_t> argmax_;  // flat input index per output element
  std::size_t cached_batch_ = 0;
};

// Global average pooling: [N, C, H, W] -> [N, C].
class GlobalAvgPool : public Module {
 public:
  GlobalAvgPool(std::size_t channels, std::size_t in_h, std::size_t in_w);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string type_name() const override { return "GlobalAvgPool"; }
  std::unique_ptr<Module> clone() const override { return std::make_unique<GlobalAvgPool>(*this); }

 private:
  std::size_t channels_, in_h_, in_w_;
  std::size_t cached_batch_ = 0;
};

}  // namespace fedca::nn
