#include "data/dataset.h"

#include <cstring>
#include <stdexcept>

namespace quickdrop::data {
namespace {

Shape with_batch(const Shape& image_shape, std::int64_t m) {
  Shape s;
  s.reserve(image_shape.size() + 1);
  s.push_back(m);
  s.insert(s.end(), image_shape.begin(), image_shape.end());
  return s;
}

}  // namespace

Dataset::Dataset(Shape image_shape, int num_classes)
    : image_shape_(std::move(image_shape)),
      num_classes_(num_classes),
      images_(with_batch(image_shape_, 0)) {
  if (num_classes <= 0) throw std::invalid_argument("Dataset: num_classes must be positive");
}

Dataset::Dataset(Tensor images, std::vector<int> labels, int num_classes)
    : num_classes_(num_classes), images_(std::move(images)), labels_(std::move(labels)) {
  if (num_classes <= 0) throw std::invalid_argument("Dataset: num_classes must be positive");
  const auto& s = images_.shape();
  if (s.empty() || s[0] != static_cast<std::int64_t>(labels_.size())) {
    throw std::invalid_argument("Dataset: leading image dim must equal label count");
  }
  image_shape_.assign(s.begin() + 1, s.end());
  for (const int l : labels_) {
    if (l < 0 || l >= num_classes_) throw std::invalid_argument("Dataset: label out of range");
  }
}

Tensor Dataset::image(int i) const {
  if (i < 0 || i >= size()) throw std::out_of_range("Dataset::image: index out of range");
  const std::int64_t stride = numel(image_shape_);
  Tensor out = Tensor::uninitialized(image_shape_);
  std::memcpy(out.data().data(), images_.data().data() + i * stride,
              static_cast<std::size_t>(stride) * sizeof(float));
  return out;
}

std::pair<Tensor, std::vector<int>> Dataset::batch(const std::vector<int>& indices) const {
  const std::int64_t stride = numel(image_shape_);
  Tensor out =
      Tensor::uninitialized(with_batch(image_shape_, static_cast<std::int64_t>(indices.size())));
  std::vector<int> labels;
  labels.reserve(indices.size());
  for (std::size_t b = 0; b < indices.size(); ++b) {
    const int i = indices[b];
    if (i < 0 || i >= size()) throw std::out_of_range("Dataset::batch: index out of range");
    std::memcpy(out.data().data() + static_cast<std::int64_t>(b) * stride,
                images_.data().data() + i * stride, static_cast<std::size_t>(stride) * sizeof(float));
    labels.push_back(labels_[static_cast<std::size_t>(i)]);
  }
  return {std::move(out), std::move(labels)};
}

std::vector<int> Dataset::indices_of_class(int c) const {
  std::vector<int> out;
  for (int i = 0; i < size(); ++i) {
    if (labels_[static_cast<std::size_t>(i)] == c) out.push_back(i);
  }
  return out;
}

std::vector<int> Dataset::class_counts() const {
  std::vector<int> counts(static_cast<std::size_t>(num_classes_), 0);
  for (const int l : labels_) ++counts[static_cast<std::size_t>(l)];
  return counts;
}

Dataset Dataset::subset(const std::vector<int>& indices) const {
  auto [images, labels] = batch(indices);
  return Dataset(std::move(images), std::move(labels), num_classes_);
}

Dataset Dataset::concat(const Dataset& a, const Dataset& b) {
  if (a.image_shape_ != b.image_shape_ || a.num_classes_ != b.num_classes_) {
    throw std::invalid_argument("Dataset::concat: geometry mismatch");
  }
  Tensor images = Tensor::uninitialized(with_batch(a.image_shape_, a.size() + b.size()));
  const std::size_t abytes = a.images_.data().size() * sizeof(float);
  std::memcpy(images.data().data(), a.images_.data().data(), abytes);
  std::memcpy(reinterpret_cast<std::uint8_t*>(images.data().data()) + abytes,
              b.images_.data().data(), b.images_.data().size() * sizeof(float));
  std::vector<int> labels = a.labels_;
  labels.insert(labels.end(), b.labels_.begin(), b.labels_.end());
  return Dataset(std::move(images), std::move(labels), a.num_classes_);
}

std::vector<int> Dataset::sample_batch_indices(const std::vector<int>& pool, int batch_size,
                                               Rng& rng) {
  if (pool.empty()) throw std::invalid_argument("sample_batch_indices: empty pool");
  const int k = std::min<int>(batch_size, static_cast<int>(pool.size()));
  const auto picks = rng.sample_without_replacement(static_cast<int>(pool.size()), k);
  std::vector<int> out;
  out.reserve(picks.size());
  for (const int p : picks) out.push_back(pool[static_cast<std::size_t>(p)]);
  return out;
}

}  // namespace quickdrop::data
