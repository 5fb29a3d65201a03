#include "nn/sequential.hpp"

#include <stdexcept>

#include "tensor/ops.hpp"

namespace fedca::nn {

Sequential& Sequential::add(std::unique_ptr<Module> child) {
  if (!child) throw std::invalid_argument("Sequential::add: null child");
  children_.push_back(std::move(child));
  return *this;
}

Tensor Sequential::forward(const Tensor& input) {
  Tensor x = input;
  for (auto& child : children_) x = child->forward(x);
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = children_.rbegin(); it != children_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> params;
  for (auto& child : children_) {
    for (Parameter* p : child->parameters()) params.push_back(p);
  }
  return params;
}

void Sequential::set_training(bool training) {
  for (auto& child : children_) child->set_training(training);
}

void Sequential::set_input_grad_needed(bool needed) {
  if (!children_.empty()) children_.front()->set_input_grad_needed(needed);
}

std::unique_ptr<Module> Sequential::clone() const {
  auto out = std::make_unique<Sequential>();
  for (const auto& child : children_) {
    out->add(child->clone());
  }
  return out;
}

void Sequential::visit_buffers(const std::function<void(std::span<double>)>& fn) {
  for (auto& child : children_) child->visit_buffers(fn);
}

Residual::Residual(std::unique_ptr<Module> main, std::unique_ptr<Module> shortcut)
    : main_(std::move(main)), shortcut_(std::move(shortcut)) {
  if (!main_) throw std::invalid_argument("Residual: null main branch");
}

Tensor Residual::forward(const Tensor& input) {
  Tensor main_out = main_->forward(input);
  Tensor skip_out = shortcut_ ? shortcut_->forward(input) : input;
  if (!main_out.same_shape(skip_out)) {
    throw std::logic_error("Residual: branch shapes differ: " +
                           tensor::shape_to_string(main_out.shape()) + " vs " +
                           tensor::shape_to_string(skip_out.shape()));
  }
  return tensor::add(main_out, skip_out);
}

Tensor Residual::backward(const Tensor& grad_output) {
  Tensor grad_main = main_->backward(grad_output);
  if (shortcut_) {
    Tensor grad_skip = shortcut_->backward(grad_output);
    return tensor::add(grad_main, grad_skip);
  }
  return tensor::add(grad_main, grad_output);
}

std::vector<Parameter*> Residual::parameters() {
  std::vector<Parameter*> params = main_->parameters();
  if (shortcut_) {
    for (Parameter* p : shortcut_->parameters()) params.push_back(p);
  }
  return params;
}

void Residual::set_training(bool training) {
  main_->set_training(training);
  if (shortcut_) shortcut_->set_training(training);
}

std::unique_ptr<Module> Residual::clone() const {
  return std::make_unique<Residual>(main_->clone(),
                                    shortcut_ ? shortcut_->clone() : nullptr);
}

void Residual::visit_buffers(const std::function<void(std::span<double>)>& fn) {
  main_->visit_buffers(fn);
  if (shortcut_) shortcut_->visit_buffers(fn);
}

}  // namespace fedca::nn
