#include "tensor/tensor.h"

#include <cmath>
#include <stdexcept>

namespace quickdrop {

Tensor::Tensor() : shape_{}, data_(std::make_shared<std::vector<float>>(1, 0.0f)) {}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(std::make_shared<std::vector<float>>(static_cast<std::size_t>(quickdrop::numel(shape_)), 0.0f)) {}

Tensor::Tensor(Shape shape, std::vector<float> values) : shape_(std::move(shape)) {
  if (static_cast<std::int64_t>(values.size()) != quickdrop::numel(shape_)) {
    throw std::invalid_argument("Tensor: values size does not match shape " + shape_to_string(shape_));
  }
  data_ = std::make_shared<std::vector<float>>(std::move(values));
}

Tensor Tensor::zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (auto& v : *t.data_) v = rng.normal(0.0f, stddev);
  return t;
}

Tensor Tensor::clone() const {
  return Tensor(shape_, std::make_shared<std::vector<float>>(*data_));
}

Tensor Tensor::reshaped(Shape new_shape) const {
  if (quickdrop::numel(new_shape) != numel()) {
    throw std::invalid_argument("Tensor::reshaped: numel mismatch " + shape_to_string(shape_) +
                                " -> " + shape_to_string(new_shape));
  }
  return Tensor(std::move(new_shape), data_);
}

void Tensor::fill(float value) {
  for (auto& v : *data_) v = value;
}

void Tensor::add_(const Tensor& other, float scale) {
  check_same_shape(shape_, other.shape_, "Tensor::add_");
  for (std::size_t i = 0; i < data_->size(); ++i) (*data_)[i] += scale * (*other.data_)[i];
}

void Tensor::scale_(float factor) {
  for (auto& v : *data_) v *= factor;
}

void Tensor::copy_from(const Tensor& other) {
  check_same_shape(shape_, other.shape_, "Tensor::copy_from");
  *data_ = *other.data_;
}

float Tensor::item() const {
  if (numel() != 1) {
    throw std::logic_error("Tensor::item: tensor has " + std::to_string(numel()) + " elements");
  }
  return (*data_)[0];
}

float Tensor::sum() const {
  double acc = 0.0;
  for (const auto v : *data_) acc += v;
  return static_cast<float>(acc);
}

float Tensor::mean() const { return numel() == 0 ? 0.0f : sum() / static_cast<float>(numel()); }

float Tensor::max_abs() const {
  float m = 0.0f;
  for (const auto v : *data_) m = std::max(m, std::fabs(v));
  return m;
}

}  // namespace quickdrop
