#include "nn/lstm.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/trace.hpp"
#include "tensor/init.hpp"
#include "tensor/ops.hpp"

namespace fedca::nn {

namespace {

float sigmoidf(float x) { return 1.0f / (1.0f + std::exp(-x)); }

}  // namespace

LSTM::LSTM(std::string name_prefix, std::size_t input_size, std::size_t hidden_size,
           std::size_t seq_len, util::Rng& rng)
    : input_size_(input_size),
      hidden_size_(hidden_size),
      seq_len_(seq_len),
      weight_ih_(name_prefix + ".weight_ih_l0", Tensor({4 * hidden_size, input_size})),
      weight_hh_(name_prefix + ".weight_hh_l0", Tensor({4 * hidden_size, hidden_size})),
      bias_ih_(name_prefix + ".bias_ih_l0", Tensor({4 * hidden_size})),
      bias_hh_(name_prefix + ".bias_hh_l0", Tensor({4 * hidden_size})) {
  tensor::fanin_uniform(weight_ih_.value, hidden_size, rng);
  tensor::fanin_uniform(weight_hh_.value, hidden_size, rng);
  tensor::fanin_uniform(bias_ih_.value, hidden_size, rng);
  tensor::fanin_uniform(bias_hh_.value, hidden_size, rng);
}

Tensor LSTM::forward(const Tensor& input) {
  FEDCA_KERNEL_SPAN("lstm.forward");
  if (input.ndim() != 3 || input.dim(1) != seq_len_ || input.dim(2) != input_size_) {
    throw std::invalid_argument("LSTM::forward expects [N, " + std::to_string(seq_len_) +
                                ", " + std::to_string(input_size_) + "], got " +
                                tensor::shape_to_string(input.shape()));
  }
  const std::size_t n = input.dim(0);
  const std::size_t H = hidden_size_;
  cached_batch_ = n;
  cache_.assign(seq_len_, StepCache{});

  Tensor h({n, H});
  Tensor c({n, H});
  Tensor pre({n, 4 * H});
  Tensor pre_x({n, 4 * H});
  Tensor pre_h({n, 4 * H});

  for (std::size_t t = 0; t < seq_len_; ++t) {
    StepCache& sc = cache_[t];
    // Slice x_t out of the [N, T, F] input.
    sc.x = Tensor({n, input_size_});
    for (std::size_t s = 0; s < n; ++s) {
      const float* src = input.raw() + (s * seq_len_ + t) * input_size_;
      std::copy(src, src + input_size_, sc.x.raw() + s * input_size_);
    }
    sc.h_prev = h;
    sc.c_prev = c;

    tensor::gemm_nt(sc.x, weight_ih_.value, pre_x);
    tensor::gemm_nt(h, weight_hh_.value, pre_h);
    const float* b_ih = bias_ih_.value.raw();
    const float* b_hh = bias_hh_.value.raw();
    for (std::size_t s = 0; s < n; ++s) {
      const std::size_t row = s * 4 * H;
      for (std::size_t j = 0; j < 4 * H; ++j) {
        pre[row + j] = pre_x[row + j] + pre_h[row + j] + b_ih[j] + b_hh[j];
      }
    }

    sc.i = Tensor({n, H});
    sc.f = Tensor({n, H});
    sc.g = Tensor({n, H});
    sc.o = Tensor({n, H});
    sc.c = Tensor({n, H});
    sc.tanh_c = Tensor({n, H});
    for (std::size_t s = 0; s < n; ++s) {
      const float* p = pre.raw() + s * 4 * H;
      for (std::size_t j = 0; j < H; ++j) {
        const float iv = sigmoidf(p[0 * H + j]);
        const float fv = sigmoidf(p[1 * H + j]);
        const float gv = std::tanh(p[2 * H + j]);
        const float ov = sigmoidf(p[3 * H + j]);
        const float cv = fv * sc.c_prev[s * H + j] + iv * gv;
        sc.i[s * H + j] = iv;
        sc.f[s * H + j] = fv;
        sc.g[s * H + j] = gv;
        sc.o[s * H + j] = ov;
        sc.c[s * H + j] = cv;
        const float tc = std::tanh(cv);
        sc.tanh_c[s * H + j] = tc;
        h[s * H + j] = ov * tc;
        c[s * H + j] = cv;
      }
    }
  }
  return h;  // last hidden state
}

Tensor LSTM::backward(const Tensor& grad_output) {
  FEDCA_KERNEL_SPAN("lstm.backward");
  const std::size_t n = cached_batch_;
  const std::size_t H = hidden_size_;
  if (grad_output.ndim() != 2 || grad_output.dim(0) != n || grad_output.dim(1) != H) {
    throw std::invalid_argument("LSTM::backward expects [N, H] gradient, got " +
                                tensor::shape_to_string(grad_output.shape()));
  }
  Tensor grad_input;
  if (input_grad_needed_) grad_input = Tensor({n, seq_len_, input_size_});
  Tensor dh = grad_output;  // gradient flowing into h_t
  Tensor dc({n, H});        // gradient flowing into c_t (zero at t = T)
  Tensor dpre({n, 4 * H});
  Tensor dparam({4 * H, input_size_});
  Tensor dparam_h({4 * H, hidden_size_});
  Tensor dx;
  if (input_grad_needed_) dx = Tensor({n, input_size_});
  Tensor dh_rec({n, H});

  for (std::size_t t = seq_len_; t-- > 0;) {
    const StepCache& sc = cache_[t];
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t j = 0; j < H; ++j) {
        const std::size_t k = s * H + j;
        const float dhv = dh[k];
        const float tc = sc.tanh_c[k];
        const float dov = dhv * tc;
        float dcv = dhv * sc.o[k] * (1.0f - tc * tc) + dc[k];
        const float div = dcv * sc.g[k];
        const float dgv = dcv * sc.i[k];
        const float dfv = dcv * sc.c_prev[k];
        dc[k] = dcv * sc.f[k];  // gradient to c_{t-1}
        float* dp = dpre.raw() + s * 4 * H;
        dp[0 * H + j] = div * sc.i[k] * (1.0f - sc.i[k]);
        dp[1 * H + j] = dfv * sc.f[k] * (1.0f - sc.f[k]);
        dp[2 * H + j] = dgv * (1.0f - sc.g[k] * sc.g[k]);
        dp[3 * H + j] = dov * sc.o[k] * (1.0f - sc.o[k]);
      }
    }
    // Parameter gradients.
    tensor::gemm_tn(dpre, sc.x, dparam);
    tensor::add_scaled(weight_ih_.grad, 1.0f, dparam);
    tensor::gemm_tn(dpre, sc.h_prev, dparam_h);
    tensor::add_scaled(weight_hh_.grad, 1.0f, dparam_h);
    for (std::size_t s = 0; s < n; ++s) {
      const float* dp = dpre.raw() + s * 4 * H;
      for (std::size_t j = 0; j < 4 * H; ++j) {
        bias_ih_.grad[j] += dp[j];
        bias_hh_.grad[j] += dp[j];
      }
    }
    // Input gradient for this timestep.
    if (input_grad_needed_) {
      tensor::gemm(dpre, weight_ih_.value, dx);
      for (std::size_t s = 0; s < n; ++s) {
        float* dst = grad_input.raw() + (s * seq_len_ + t) * input_size_;
        const float* src = dx.raw() + s * input_size_;
        for (std::size_t j = 0; j < input_size_; ++j) dst[j] = src[j];
      }
    }
    // Recurrent gradient to h_{t-1}.
    tensor::gemm(dpre, weight_hh_.value, dh_rec);
    dh = dh_rec;
  }
  return grad_input;
}

std::vector<Parameter*> LSTM::parameters() {
  return {&weight_ih_, &weight_hh_, &bias_ih_, &bias_hh_};
}

}  // namespace fedca::nn
