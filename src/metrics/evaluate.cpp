#include "metrics/evaluate.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.h"

namespace quickdrop::metrics {
namespace {

/// Invokes `fn(batch_logits, batch_labels, batch_rows)` over the given rows.
template <typename Fn>
void for_each_batch(nn::Module& model, const data::Dataset& dataset,
                    const std::vector<int>& rows, int batch_size, Fn fn) {
  for (std::size_t start = 0; start < rows.size(); start += static_cast<std::size_t>(batch_size)) {
    const auto end = std::min(rows.size(), start + static_cast<std::size_t>(batch_size));
    const std::vector<int> batch_rows(rows.begin() + static_cast<std::ptrdiff_t>(start),
                                      rows.begin() + static_cast<std::ptrdiff_t>(end));
    auto [images, labels] = dataset.batch(batch_rows);
    const Tensor logits = model.predict(images);
    fn(logits, labels, batch_rows);
  }
}

std::vector<int> all_rows(const data::Dataset& dataset) {
  std::vector<int> rows(static_cast<std::size_t>(dataset.size()));
  for (int i = 0; i < dataset.size(); ++i) rows[static_cast<std::size_t>(i)] = i;
  return rows;
}

}  // namespace

double accuracy_on_indices(nn::Module& model, const data::Dataset& dataset,
                           const std::vector<int>& indices, int batch_size) {
  if (indices.empty()) return 0.0;
  int correct = 0;
  for_each_batch(model, dataset, indices, batch_size,
                 [&](const Tensor& logits, const std::vector<int>& labels, const auto&) {
                   const auto preds = kernels::argmax_rows(logits);
                   for (std::size_t i = 0; i < labels.size(); ++i) correct += preds[i] == labels[i];
                 });
  return static_cast<double>(correct) / static_cast<double>(indices.size());
}

double accuracy(nn::Module& model, const data::Dataset& dataset, int batch_size) {
  return accuracy_on_indices(model, dataset, all_rows(dataset), batch_size);
}

std::vector<double> per_class_accuracy(nn::Module& model, const data::Dataset& dataset,
                                       int batch_size) {
  std::vector<int> correct(static_cast<std::size_t>(dataset.num_classes()), 0);
  std::vector<int> total(static_cast<std::size_t>(dataset.num_classes()), 0);
  for_each_batch(model, dataset, all_rows(dataset), batch_size,
                 [&](const Tensor& logits, const std::vector<int>& labels, const auto&) {
                   const auto preds = kernels::argmax_rows(logits);
                   for (std::size_t i = 0; i < labels.size(); ++i) {
                     ++total[static_cast<std::size_t>(labels[i])];
                     correct[static_cast<std::size_t>(labels[i])] += preds[i] == labels[i];
                   }
                 });
  std::vector<double> out(static_cast<std::size_t>(dataset.num_classes()), 0.0);
  for (std::size_t c = 0; c < out.size(); ++c) {
    if (total[c] > 0) out[c] = static_cast<double>(correct[c]) / total[c];
  }
  return out;
}

double accuracy_on_classes(nn::Module& model, const data::Dataset& dataset,
                           const std::vector<int>& classes, int batch_size) {
  std::vector<int> rows;
  for (int i = 0; i < dataset.size(); ++i) {
    if (std::find(classes.begin(), classes.end(), dataset.label(i)) != classes.end()) {
      rows.push_back(i);
    }
  }
  return accuracy_on_indices(model, dataset, rows, batch_size);
}

double accuracy_excluding_classes(nn::Module& model, const data::Dataset& dataset,
                                  const std::vector<int>& classes, int batch_size) {
  std::vector<int> rows;
  for (int i = 0; i < dataset.size(); ++i) {
    if (std::find(classes.begin(), classes.end(), dataset.label(i)) == classes.end()) {
      rows.push_back(i);
    }
  }
  return accuracy_on_indices(model, dataset, rows, batch_size);
}

double mean_loss(nn::Module& model, const data::Dataset& dataset, int batch_size) {
  if (dataset.empty()) return 0.0;
  double total = 0.0;
  for_each_batch(model, dataset, all_rows(dataset), batch_size,
                 [&](const Tensor& logits, const std::vector<int>& labels, const auto&) {
                   const ag::Var loss =
                       ag::cross_entropy(ag::Var::constant(logits), labels);
                   total += static_cast<double>(loss.value().item()) *
                            static_cast<double>(labels.size());
                 });
  return total / dataset.size();
}

Tensor softmax_probabilities(nn::Module& model, const data::Dataset& dataset,
                             const std::vector<int>& indices, int batch_size) {
  Tensor out({static_cast<std::int64_t>(indices.size()), dataset.num_classes()});
  std::int64_t row = 0;
  for_each_batch(model, dataset, indices, batch_size,
                 [&](const Tensor& logits, const std::vector<int>& labels, const auto&) {
                   const std::int64_t c = logits.dim(1);
                   for (std::int64_t i = 0; i < logits.dim(0); ++i) {
                     float maxv = logits.at(i * c);
                     for (std::int64_t j = 1; j < c; ++j) maxv = std::max(maxv, logits.at(i * c + j));
                     double denom = 0.0;
                     for (std::int64_t j = 0; j < c; ++j) {
                       denom += std::exp(static_cast<double>(logits.at(i * c + j) - maxv));
                     }
                     for (std::int64_t j = 0; j < c; ++j) {
                       out.at(row * c + j) = static_cast<float>(
                           std::exp(static_cast<double>(logits.at(i * c + j) - maxv)) / denom);
                     }
                     ++row;
                   }
                   (void)labels;
                 });
  return out;
}

}  // namespace quickdrop::metrics
