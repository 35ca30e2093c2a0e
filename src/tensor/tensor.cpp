#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/simd.h"

namespace quickdrop {
namespace {

/// Storage for `n` floats with unset contents: one allocation, no fill.
std::shared_ptr<float[]> allocate(std::int64_t n) {
  return std::make_shared_for_overwrite<float[]>(static_cast<std::size_t>(n));
}

}  // namespace

Tensor::Tensor() : Tensor(Shape{}) {}

Tensor::Tensor(Shape shape) : Tensor(uninitialized(std::move(shape))) {
  std::fill_n(data_.get(), numel_, 0.0f);
}

Tensor::Tensor(Shape shape, std::vector<float> values) : shape_(std::move(shape)) {
  if (static_cast<std::int64_t>(values.size()) != quickdrop::numel(shape_)) {
    throw std::invalid_argument("Tensor: values size does not match shape " + shape_to_string(shape_));
  }
  numel_ = static_cast<std::int64_t>(values.size());
  // The vector's control block owns its buffer; the tensor points into it.
  auto owner = std::make_shared<std::vector<float>>(std::move(values));
  data_ = std::shared_ptr<float[]>(owner, owner->data());
}

Tensor Tensor::uninitialized(Shape shape) {
  const std::int64_t n = quickdrop::numel(shape);
  return Tensor(std::move(shape), allocate(n), n);
}

Tensor Tensor::zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::full(Shape shape, float value) {
  Tensor t = uninitialized(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, float stddev) {
  Tensor t = uninitialized(std::move(shape));
  for (auto& v : t.data()) v = rng.normal(0.0f, stddev);
  return t;
}

Tensor Tensor::clone() const {
  Tensor t = uninitialized(shape_);
  std::copy_n(data_.get(), numel_, t.data_.get());
  return t;
}

Tensor Tensor::reshaped(Shape new_shape) const {
  if (quickdrop::numel(new_shape) != numel()) {
    throw std::invalid_argument("Tensor::reshaped: numel mismatch " + shape_to_string(shape_) +
                                " -> " + shape_to_string(new_shape));
  }
  return Tensor(std::move(new_shape), data_, numel_);
}

void Tensor::fill(float value) { simd::active().fill(data_.get(), value, numel_); }

void Tensor::add_(const Tensor& other, float scale) {
  check_same_shape(shape_, other.shape_, "Tensor::add_");
  for (std::int64_t i = 0; i < numel_; ++i) data_[i] += scale * other.data_[i];
}

void Tensor::scale_(float factor) {
  for (auto& v : data()) v *= factor;
}

void Tensor::copy_from(const Tensor& other) {
  check_same_shape(shape_, other.shape_, "Tensor::copy_from");
  std::copy_n(other.data_.get(), numel_, data_.get());
}

float Tensor::item() const {
  if (numel() != 1) {
    throw std::logic_error("Tensor::item: tensor has " + std::to_string(numel()) + " elements");
  }
  return data_[0];
}

float Tensor::sum() const {
  double acc = 0.0;
  for (const auto v : data()) acc += v;
  return static_cast<float>(acc);
}

float Tensor::mean() const { return numel() == 0 ? 0.0f : sum() / static_cast<float>(numel()); }

float Tensor::max_abs() const {
  float m = 0.0f;
  for (const auto v : data()) m = std::max(m, std::fabs(v));
  return m;
}

}  // namespace quickdrop
