// Model state as a list of per-layer tensors.
//
// FL synchronization and FedCA's statistical machinery both operate on
// *per-layer* quantities (one entry per named parameter tensor). ModelState
// is that representation: `tensors[i]` corresponds to parameters()[i] of
// the model it was captured from, and `names[i]` carries the layer name.
// Linear-algebra helpers here implement the vector arithmetic that round
// accounting, aggregation, and the progress metric need.
#pragma once

#include <string>
#include <vector>

#include "nn/module.hpp"

namespace fedca::nn {

struct ModelState {
  std::vector<std::string> names;
  std::vector<Tensor> tensors;

  std::size_t layer_count() const { return tensors.size(); }
  // Total scalars across all layers.
  std::size_t numel() const;
  // Serialized float32 payload size — what the network simulator charges.
  std::size_t byte_size() const { return numel() * sizeof(float); }
  bool same_layout(const ModelState& other) const;
  // Flattens all layers into one contiguous vector (model-granularity view
  // used by Eq. 1 applied to the whole model).
  std::vector<float> flattened() const;
  // Index of a layer by name; throws std::out_of_range if absent.
  std::size_t layer_index(const std::string& name) const;
};

// Captures the current parameter values of `model`.
ModelState capture_state(Module& model);
// Captures a flattened parameter list (e.g. a cached
// Classifier::parameters()) into `out`, reusing its tensor storage (and
// its names vector when the layer count already matches — callers reuse
// `out` only across captures of identically-laid-out models).
void capture_state_into(const std::vector<Parameter*>& params, ModelState& out);
// Writes `state` back into the parameters (layout must match).
void load_state(const std::vector<Parameter*>& params, const ModelState& state);

// c = a - b (per layer). Layouts must match.
ModelState state_sub(const ModelState& a, const ModelState& b);
// a -= b (per layer), in place. Same values as state_sub(a, b).
void state_sub_inplace(ModelState& a, const ModelState& b);
// a += alpha * b (per layer), in place.
void state_add_scaled(ModelState& a, float alpha, const ModelState& b);
// L2 norm over all layers.
double state_l2_norm(const ModelState& state);

}  // namespace fedca::nn
