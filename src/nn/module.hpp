// Module/Parameter abstraction of the neural-network substrate.
//
// Every trainable tensor is a named Parameter; names follow PyTorch
// conventions ("conv2.weight", "rnn.weight_hh_l0", ...). This matters
// beyond aesthetics: FedCA's per-layer mechanisms (Figs. 3 & 5, eager
// transmission of Sec. 4.3) operate at exactly this granularity — one
// "layer" in the paper is one named parameter tensor here.
//
// Modules implement an explicit reverse pass: forward() caches whatever the
// matching backward() needs; backward() consumes the output gradient,
// *accumulates* into each parameter's .grad, and returns the input
// gradient. No autograd tape — the model zoo is small and static, and the
// explicit style keeps per-iteration update accounting (the heart of the
// statistical-progress metric) easy to audit.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace fedca::nn {

using tensor::Tensor;

// A named trainable tensor with its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter() = default;
  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  std::size_t numel() const { return value.numel(); }
};

class Module {
 public:
  virtual ~Module() = default;

  // Maps a batch of inputs to a batch of outputs. Input layout is
  // module-specific (dense: [N, F]; conv: [N, C*H*W] flattened with known
  // geometry; recurrent: [N, T*F]). Implementations cache activations
  // needed by backward().
  virtual Tensor forward(const Tensor& input) = 0;

  // Propagates the loss gradient. Must be called after forward() with a
  // gradient matching forward's output shape. Accumulates parameter
  // gradients and returns d(loss)/d(input) (empty when the module was told
  // the input gradient is not needed; see set_input_grad_needed).
  virtual Tensor backward(const Tensor& grad_output) = 0;

  // Trainable parameters in a stable order (pointers remain valid for the
  // module's lifetime). Default: none.
  virtual std::vector<Parameter*> parameters() { return {}; }

  // Human-readable type name for diagnostics.
  virtual std::string type_name() const = 0;

  // Switches between training and inference behaviour (batch-norm
  // statistics). Containers propagate to children; stateless modules
  // ignore it.
  virtual void set_training(bool /*training*/) {}

  // Deep copy: a structurally identical module tree with its own
  // parameters and buffers (cached activations may be copied too; the
  // next forward() overwrites them). The engines train every client on a
  // clone, so every module must implement it.
  virtual std::unique_ptr<Module> clone() const = 0;

  // Declares whether the caller reads the input gradient backward()
  // returns. A model's first layer sees data, whose gradient nobody reads:
  // layers that can save work there (Conv2d, LSTM) then skip their input
  // gradient product and return an empty tensor, with parameter gradients
  // unchanged bit for bit. Sequential passes the flag to its first child;
  // other modules ignore it. A freshly built module returns its input
  // gradient.
  virtual void set_input_grad_needed(bool /*needed*/) {}

  // Visits every non-parameter state buffer (batch-norm running
  // statistics) in a stable order; containers forward to children.
  // Modules without buffers (the default) visit nothing. The engines use
  // this to snapshot/restore buffer state around parallel client
  // training so eval-time statistics stay worker-count independent.
  virtual void visit_buffers(const std::function<void(std::span<double>)>& /*fn*/) {}

  // Clears all parameter gradients.
  void zero_grad();
};

// Total scalar parameter count across a module.
std::size_t parameter_count(Module& module);

// Flattens every buffer visited by visit_buffers into one vector (empty
// when the module has none).
std::vector<double> capture_buffers(Module& module);
// Writes `data` (as produced by capture_buffers on an identically
// structured module) back into the buffers; throws on size mismatch.
void load_buffers(Module& module, const std::vector<double>& data);

}  // namespace fedca::nn
