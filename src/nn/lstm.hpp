// Single-layer LSTM over [N, T, F] sequences, returning the last hidden
// state [N, H]. Full backpropagation through time.
//
// Parameter names follow PyTorch ("rnn.weight_ih_l0", "rnn.weight_hh_l0",
// "rnn.bias_ih_l0", "rnn.bias_hh_l0") — the same identifiers the paper's
// Fig. 3/Fig. 5 use when discussing per-layer convergence of the LSTM
// workload. Gate order inside the stacked 4H dimension: input, forget,
// cell, output.
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace fedca::nn {

class LSTM : public Module {
 public:
  LSTM(std::string name_prefix, std::size_t input_size, std::size_t hidden_size,
       std::size_t seq_len, util::Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string type_name() const override { return "LSTM"; }
  // When not needed, backward() skips the per-timestep input gradient.
  void set_input_grad_needed(bool needed) override { input_grad_needed_ = needed; }
  std::unique_ptr<Module> clone() const override { return std::make_unique<LSTM>(*this); }

  std::size_t hidden_size() const { return hidden_size_; }

 private:
  std::size_t input_size_, hidden_size_, seq_len_;
  Parameter weight_ih_;  // [4H, F]
  Parameter weight_hh_;  // [4H, H]
  Parameter bias_ih_;    // [4H]
  Parameter bias_hh_;    // [4H]
  bool input_grad_needed_ = true;

  // Per-timestep forward caches (index t in [0, T)).
  struct StepCache {
    Tensor x;       // [N, F]
    Tensor h_prev;  // [N, H]
    Tensor c_prev;  // [N, H]
    Tensor i, f, g, o;  // each [N, H]
    Tensor c;       // [N, H]
    Tensor tanh_c;  // [N, H]
  };
  std::vector<StepCache> cache_;
  std::size_t cached_batch_ = 0;
};

}  // namespace fedca::nn
