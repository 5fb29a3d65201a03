#include "nn/activations.hpp"

#include <cmath>
#include <stdexcept>

namespace fedca::nn {

Tensor ReLU::forward(const Tensor& input) {
  cached_input_ = input;
  Tensor out(input.shape());
  for (std::size_t i = 0; i < input.numel(); ++i) {
    out[i] = input[i] > 0.0f ? input[i] : 0.0f;
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  if (!grad_output.same_shape(cached_input_)) {
    throw std::invalid_argument("ReLU::backward shape mismatch");
  }
  Tensor dx(grad_output.shape());
  const float* x = cached_input_.raw();
  const float* g = grad_output.raw();
  float* out = dx.raw();
  // Both operands are loaded unconditionally, so the select compiles to a
  // blend instead of a branch on the (unpredictable) activation sign.
  for (std::size_t i = 0; i < grad_output.numel(); ++i) {
    const float gi = g[i];
    out[i] = x[i] > 0.0f ? gi : 0.0f;
  }
  return dx;
}

Tensor Tanh::forward(const Tensor& input) {
  Tensor out(input.shape());
  for (std::size_t i = 0; i < input.numel(); ++i) out[i] = std::tanh(input[i]);
  cached_output_ = out;
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  if (!grad_output.same_shape(cached_output_)) {
    throw std::invalid_argument("Tanh::backward shape mismatch");
  }
  Tensor dx(grad_output.shape());
  for (std::size_t i = 0; i < grad_output.numel(); ++i) {
    dx[i] = grad_output[i] * (1.0f - cached_output_[i] * cached_output_[i]);
  }
  return dx;
}

Tensor Sigmoid::forward(const Tensor& input) {
  Tensor out(input.shape());
  for (std::size_t i = 0; i < input.numel(); ++i) {
    out[i] = 1.0f / (1.0f + std::exp(-input[i]));
  }
  cached_output_ = out;
  return out;
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  if (!grad_output.same_shape(cached_output_)) {
    throw std::invalid_argument("Sigmoid::backward shape mismatch");
  }
  Tensor dx(grad_output.shape());
  for (std::size_t i = 0; i < grad_output.numel(); ++i) {
    dx[i] = grad_output[i] * cached_output_[i] * (1.0f - cached_output_[i]);
  }
  return dx;
}

Tensor Flatten::forward(const Tensor& input) {
  cached_shape_ = input.shape();
  if (input.ndim() == 0) throw std::invalid_argument("Flatten::forward on empty tensor");
  const std::size_t n = input.dim(0);
  return input.reshaped({n, input.numel() / n});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  return grad_output.reshaped(cached_shape_);
}

}  // namespace fedca::nn
