#include "nn/state.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace fedca::nn {

std::size_t ModelState::numel() const {
  std::size_t n = 0;
  for (const auto& t : tensors) n += t.numel();
  return n;
}

bool ModelState::same_layout(const ModelState& other) const {
  if (tensors.size() != other.tensors.size()) return false;
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    if (!tensors[i].same_shape(other.tensors[i])) return false;
  }
  return true;
}

std::vector<float> ModelState::flattened() const {
  std::vector<float> out;
  out.reserve(numel());
  for (const auto& t : tensors) {
    out.insert(out.end(), t.data().begin(), t.data().end());
  }
  return out;
}

std::size_t ModelState::layer_index(const std::string& name) const {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  throw std::out_of_range("ModelState: no layer named " + name);
}

ModelState capture_state(Module& model) {
  ModelState state;
  capture_state_into(model.parameters(), state);
  return state;
}

void capture_state_into(const std::vector<Parameter*>& params, ModelState& out) {
  if (out.names.size() != params.size()) {
    out.names.clear();
    out.names.reserve(params.size());
    for (const Parameter* p : params) out.names.push_back(p->name);
  }
  out.tensors.resize(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    out.tensors[i] = params[i]->value;  // capacity-reusing copy-assign
  }
}

void load_state(const std::vector<Parameter*>& params, const ModelState& state) {
  if (params.size() != state.tensors.size()) {
    throw std::invalid_argument("load_state: layer count mismatch");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (!params[i]->value.same_shape(state.tensors[i])) {
      throw std::invalid_argument("load_state: shape mismatch at layer " +
                                  params[i]->name);
    }
    params[i]->value = state.tensors[i];
  }
}

ModelState state_sub(const ModelState& a, const ModelState& b) {
  if (!a.same_layout(b)) throw std::invalid_argument("state_sub: layout mismatch");
  ModelState out;
  out.names = a.names;
  out.tensors.resize(a.tensors.size());
  for (std::size_t i = 0; i < a.tensors.size(); ++i) {
    tensor::sub_into(a.tensors[i], b.tensors[i], out.tensors[i]);
  }
  return out;
}

void state_sub_inplace(ModelState& a, const ModelState& b) {
  if (!a.same_layout(b)) {
    throw std::invalid_argument("state_sub_inplace: layout mismatch");
  }
  for (std::size_t i = 0; i < a.tensors.size(); ++i) {
    tensor::sub_inplace(a.tensors[i], b.tensors[i]);
  }
}

void state_add_scaled(ModelState& a, float alpha, const ModelState& b) {
  if (!a.same_layout(b)) throw std::invalid_argument("state_add_scaled: layout mismatch");
  for (std::size_t i = 0; i < a.tensors.size(); ++i) {
    tensor::add_scaled(a.tensors[i], alpha, b.tensors[i]);
  }
}

double state_l2_norm(const ModelState& state) {
  double acc = 0.0;
  for (const auto& t : state.tensors) {
    const double n = tensor::l2_norm(t.data());
    acc += n * n;
  }
  return std::sqrt(acc);
}

}  // namespace fedca::nn
