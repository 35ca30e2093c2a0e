#include "attack/backdoor.h"

#include <algorithm>
#include <stdexcept>

#include "tensor/kernels.h"

namespace quickdrop::attack {

void stamp_trigger(Tensor& image, const TriggerPattern& trigger) {
  const auto& s = image.shape();
  if (s.size() != 3) throw std::invalid_argument("stamp_trigger: image must be [C,H,W]");
  const std::int64_t c = s[0], h = s[1], w = s[2];
  const std::int64_t k = std::min<std::int64_t>(trigger.size, std::min(h, w));
  if (k <= 0) throw std::invalid_argument("stamp_trigger: bad trigger size");
  const std::int64_t y0 = (trigger.corner == 2 || trigger.corner == 3) ? h - k : 0;
  const std::int64_t x0 = (trigger.corner == 1 || trigger.corner == 3) ? w - k : 0;
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (std::int64_t y = 0; y < k; ++y) {
      for (std::int64_t x = 0; x < k; ++x) {
        image.at((ch * h + y0 + y) * w + x0 + x) = trigger.intensity;
      }
    }
  }
}

data::Dataset poison_dataset(const data::Dataset& dataset, const TriggerPattern& trigger,
                             int target_label) {
  if (target_label < 0 || target_label >= dataset.num_classes()) {
    throw std::invalid_argument("poison_dataset: bad target label");
  }
  std::vector<int> rows(static_cast<std::size_t>(dataset.size()));
  for (int i = 0; i < dataset.size(); ++i) rows[static_cast<std::size_t>(i)] = i;
  auto [images, labels] = dataset.batch(rows);
  const std::int64_t stride = numel(dataset.image_shape());
  for (int i = 0; i < dataset.size(); ++i) {
    // View of row i sharing the batch storage via a temporary copy-out/in:
    Tensor row(dataset.image_shape());
    std::copy_n(images.data().data() + i * stride, static_cast<std::size_t>(stride),
                row.data().data());
    stamp_trigger(row, trigger);
    std::copy_n(row.data().data(), static_cast<std::size_t>(stride),
                images.data().data() + i * stride);
    labels[static_cast<std::size_t>(i)] = target_label;
  }
  return data::Dataset(std::move(images), std::move(labels), dataset.num_classes());
}

double backdoor_success_rate(nn::Module& model, const data::Dataset& clean_samples,
                             const TriggerPattern& trigger, int target_label, int max_samples) {
  std::vector<int> rows;
  for (int i = 0; i < clean_samples.size() && static_cast<int>(rows.size()) < max_samples; ++i) {
    if (clean_samples.label(i) != target_label) rows.push_back(i);
  }
  if (rows.empty()) return 0.0;
  auto [images, labels] = clean_samples.batch(rows);
  (void)labels;
  const std::int64_t stride = numel(clean_samples.image_shape());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    Tensor row(clean_samples.image_shape());
    std::copy_n(images.data().data() + static_cast<std::int64_t>(i) * stride,
                static_cast<std::size_t>(stride), row.data().data());
    stamp_trigger(row, trigger);
    std::copy_n(row.data().data(), static_cast<std::size_t>(stride),
                images.data().data() + static_cast<std::int64_t>(i) * stride);
  }
  const auto preds = kernels::argmax_rows(model.predict(images));
  int hits = 0;
  for (const int p : preds) hits += p == target_label;
  return static_cast<double>(hits) / static_cast<double>(preds.size());
}

}  // namespace quickdrop::attack
