#include "tensor/tensor.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace fedca::tensor {

std::size_t shape_numel(const Shape& shape) {
  if (shape.empty()) return 0;
  std::size_t n = 1;
  for (const auto d : shape) n *= d;
  return n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream out;
  out << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) out << ", ";
    out << shape[i];
  }
  out << ']';
  return out.str();
}

Tensor::Tensor(Shape shape)
    : shape_(shape), data_(shape_numel(shape_), 0.0f) {}

Tensor::Tensor(Shape shape, float fill)
    : shape_(shape), data_(shape_numel(shape_), fill) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(shape), data_(std::move(data)) {
  if (data_.size() != shape_numel(shape_)) {
    throw std::invalid_argument("Tensor: data size " + std::to_string(data_.size()) +
                                " does not match shape " + shape_to_string(shape_));
  }
}

Tensor::Tensor(Tensor&& other) noexcept
    : shape_(other.shape_), data_(std::move(other.data_)) {
  other.shape_.clear();
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this != &other) {
    shape_ = other.shape_;
    data_ = std::move(other.data_);
    other.shape_.clear();
  }
  return *this;
}

Tensor Tensor::of(std::initializer_list<float> values) {
  return Tensor({values.size()}, std::vector<float>(values));
}

std::size_t Tensor::dim(std::size_t axis) const {
  if (axis >= shape_.size()) {
    throw std::out_of_range("Tensor::dim axis " + std::to_string(axis) +
                            " out of range for shape " + shape_to_string(shape_));
  }
  return shape_[axis];
}

float& Tensor::at(std::size_t flat_index) {
  if (flat_index >= data_.size()) {
    throw std::out_of_range("Tensor::at index " + std::to_string(flat_index) +
                            " out of range (numel " + std::to_string(data_.size()) + ")");
  }
  return data_[flat_index];
}

float Tensor::at(std::size_t flat_index) const {
  return const_cast<Tensor*>(this)->at(flat_index);
}

float& Tensor::at(std::size_t row, std::size_t col) {
  if (shape_.size() != 2) {
    throw std::logic_error("Tensor::at(row,col) requires 2-D tensor, got " +
                           shape_to_string(shape_));
  }
  if (row >= shape_[0] || col >= shape_[1]) {
    throw std::out_of_range("Tensor::at(" + std::to_string(row) + ", " +
                            std::to_string(col) + ") out of range for " +
                            shape_to_string(shape_));
  }
  return data_[row * shape_[1] + col];
}

float Tensor::at(std::size_t row, std::size_t col) const {
  return const_cast<Tensor*>(this)->at(row, col);
}

Tensor Tensor::reshaped(Shape new_shape) const {
  if (shape_numel(new_shape) != data_.size()) {
    throw std::invalid_argument("Tensor::reshaped: shape " + shape_to_string(new_shape) +
                                " incompatible with numel " + std::to_string(data_.size()));
  }
  Tensor out(*this);
  out.shape_ = new_shape;
  return out;
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

}  // namespace fedca::tensor
