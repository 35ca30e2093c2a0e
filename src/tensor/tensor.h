// Dense float32 tensor with shared storage.
//
// Tensor is a cheap-to-copy handle: copies alias the same buffer (like
// torch.Tensor). Use clone() for a deep copy. All tensors are contiguous and
// row-major; views are not supported — ops materialize their results.
//
// Storage is one shared float array: a fresh tensor is a single allocation
// holding both the reference count and the elements.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "tensor/shape.h"
#include "util/rng.h"

namespace quickdrop {

class Tensor {
 public:
  /// Empty scalar-shaped tensor holding a single zero.
  Tensor();

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor adopting the given values; values.size() must equal numel(shape).
  /// The vector's buffer becomes the tensor's storage (no copy).
  Tensor(Shape shape, std::vector<float> values);

  /// Tensor of the given shape whose elements are left unset. For kernels
  /// that write every element before anything reads one.
  static Tensor uninitialized(Shape shape);

  /// Factories.
  static Tensor zeros(Shape shape);
  static Tensor full(Shape shape, float value);
  static Tensor ones(Shape shape) { return full(std::move(shape), 1.0f); }
  /// I.i.d. normal entries with the given stddev.
  static Tensor randn(Shape shape, Rng& rng, float stddev = 1.0f);
  /// 1-element scalar tensor.
  static Tensor scalar(float value) { return Tensor({}, {value}); }

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] std::int64_t numel() const { return numel_; }
  [[nodiscard]] std::int64_t dim(int i) const { return shape_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] int rank() const { return static_cast<int>(shape_.size()); }

  /// Flat element access.
  [[nodiscard]] float& at(std::int64_t i) { return data_[i]; }
  [[nodiscard]] float at(std::int64_t i) const { return data_[i]; }

  /// Raw contiguous storage.
  [[nodiscard]] std::span<float> data() { return {data_.get(), static_cast<std::size_t>(numel_)}; }
  [[nodiscard]] std::span<const float> data() const {
    return {data_.get(), static_cast<std::size_t>(numel_)};
  }

  /// True if two handles alias the same buffer.
  [[nodiscard]] bool same_storage(const Tensor& other) const {
    return !data_.owner_before(other.data_) && !other.data_.owner_before(data_);
  }

  /// Deep copy.
  [[nodiscard]] Tensor clone() const;

  /// Reinterprets the buffer with a new shape of equal numel (shares storage).
  [[nodiscard]] Tensor reshaped(Shape new_shape) const;

  /// In-place helpers (mutate the shared buffer).
  void fill(float value);
  void add_(const Tensor& other, float scale = 1.0f);  ///< this += scale * other
  void scale_(float factor);                           ///< this *= factor
  void copy_from(const Tensor& other);                 ///< elementwise copy, same shape

  /// Scalar value of a 1-element tensor.
  [[nodiscard]] float item() const;

  /// Sum / mean / max-abs of all entries (convenience for tests & metrics).
  [[nodiscard]] float sum() const;
  [[nodiscard]] float mean() const;
  [[nodiscard]] float max_abs() const;

 private:
  /// Adopts existing storage of `numel` elements under `shape`.
  Tensor(Shape shape, std::shared_ptr<float[]> data, std::int64_t numel)
      : shape_(std::move(shape)), data_(std::move(data)), numel_(numel) {}

  Shape shape_;
  std::shared_ptr<float[]> data_;
  std::int64_t numel_ = 0;
};

}  // namespace quickdrop
