#include "attack/mia.h"

#include <algorithm>
#include <cmath>

#include "fl/client_update.h"
#include "metrics/evaluate.h"
#include "nn/convnet.h"
#include "tensor/kernels.h"

namespace quickdrop::attack {
namespace {

std::vector<int> all_rows(const data::Dataset& d) {
  std::vector<int> rows(static_cast<std::size_t>(d.size()));
  for (int i = 0; i < d.size(); ++i) rows[static_cast<std::size_t>(i)] = i;
  return rows;
}

/// Feature standardization statistics fit on the attack training set.
struct Standardizer {
  std::vector<float> mean, stddev;

  void fit(const Tensor& features) {
    const std::int64_t n = features.dim(0), f = features.dim(1);
    mean.assign(static_cast<std::size_t>(f), 0.0f);
    stddev.assign(static_cast<std::size_t>(f), 0.0f);
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < f; ++j) mean[static_cast<std::size_t>(j)] += features.at(i * f + j);
    }
    for (auto& m : mean) m /= static_cast<float>(n);
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < f; ++j) {
        const float d = features.at(i * f + j) - mean[static_cast<std::size_t>(j)];
        stddev[static_cast<std::size_t>(j)] += d * d;
      }
    }
    for (auto& s : stddev) s = std::sqrt(s / static_cast<float>(n)) + 1e-6f;
  }

  [[nodiscard]] Tensor apply(const Tensor& features) const {
    Tensor out = features.clone();
    const std::int64_t n = out.dim(0), f = out.dim(1);
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < f; ++j) {
        out.at(i * f + j) = (out.at(i * f + j) - mean[static_cast<std::size_t>(j)]) /
                            stddev[static_cast<std::size_t>(j)];
      }
    }
    return out;
  }
};

/// The attack model: logits = features W^T + b over {non-member, member}.
class AttackModel {
 public:
  explicit AttackModel(Rng& rng) : net_(nn::make_mlp(3, 8, 2, rng)) {}

  void train(const Tensor& features, const std::vector<int>& labels, const MiaConfig& config,
             Rng& rng) {
    std::vector<int> pool(static_cast<std::size_t>(features.dim(0)));
    for (std::size_t i = 0; i < pool.size(); ++i) pool[i] = static_cast<int>(i);
    fl::CostMeter cost;
    for (int step = 0; step < config.train_steps; ++step) {
      const auto rows = data::Dataset::sample_batch_indices(pool, config.batch_size, rng);
      Tensor batch({static_cast<std::int64_t>(rows.size()), 3});
      std::vector<int> batch_labels;
      batch_labels.reserve(rows.size());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        for (int j = 0; j < 3; ++j) {
          batch.at(static_cast<std::int64_t>(i) * 3 + j) =
              features.at(static_cast<std::int64_t>(rows[i]) * 3 + j);
        }
        batch_labels.push_back(labels[static_cast<std::size_t>(rows[i])]);
      }
      fl::sgd_step_on_batch(*net_, batch, batch_labels, config.learning_rate,
                            nn::UpdateDirection::kDescent, cost);
    }
  }

  /// Fraction of rows predicted "member" (class 1).
  [[nodiscard]] double member_rate(const Tensor& features) {
    if (features.dim(0) == 0) return 0.0;
    const auto preds = kernels::argmax_rows(net_->predict(features));
    int members = 0;
    for (const int p : preds) members += p == 1;
    return static_cast<double>(members) / static_cast<double>(preds.size());
  }

 private:
  std::unique_ptr<nn::Sequential> net_;
};

}  // namespace

Tensor mia_features(nn::Module& target, const data::Dataset& dataset,
                    const std::vector<int>& rows) {
  const Tensor probs = metrics::softmax_probabilities(target, dataset, rows);
  const std::int64_t c = probs.dim(1);
  Tensor out({static_cast<std::int64_t>(rows.size()), 3});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const int label = dataset.label(rows[i]);
    float conf = 0.0f;
    double entropy = 0.0;
    const float p_label =
        std::max(probs.at(static_cast<std::int64_t>(i) * c + label), 1e-12f);
    for (std::int64_t j = 0; j < c; ++j) {
      const float p = probs.at(static_cast<std::int64_t>(i) * c + j);
      conf = std::max(conf, p);
      if (p > 1e-12f) entropy -= static_cast<double>(p) * std::log(static_cast<double>(p));
    }
    out.at(static_cast<std::int64_t>(i) * 3 + 0) = -std::log(p_label);  // loss
    out.at(static_cast<std::int64_t>(i) * 3 + 1) = conf;
    out.at(static_cast<std::int64_t>(i) * 3 + 2) = static_cast<float>(entropy);
  }
  return out;
}

MiaReport run_mia(nn::Module& target, const data::Dataset& member_data,
                  const data::Dataset& non_member_data, const data::Dataset& forget_set,
                  const data::Dataset& retain_set, Rng& rng, const MiaConfig& config) {
  // Balanced member/non-member training rows with a held-out half for the
  // attack-accuracy estimate.
  auto member_rows = all_rows(member_data);
  auto non_member_rows = all_rows(non_member_data);
  rng.shuffle(member_rows);
  rng.shuffle(non_member_rows);
  const int per_side = std::min({config.max_examples_per_side,
                                 static_cast<int>(member_rows.size()),
                                 static_cast<int>(non_member_rows.size())});
  member_rows.resize(static_cast<std::size_t>(per_side));
  non_member_rows.resize(static_cast<std::size_t>(per_side));
  const int train_per_side = per_side / 2;

  const Tensor member_feat = mia_features(target, member_data, member_rows);
  const Tensor non_member_feat = mia_features(target, non_member_data, non_member_rows);

  auto take = [](const Tensor& feat, int from, int to) {
    Tensor out({to - from, 3});
    for (std::int64_t i = 0; i < out.dim(0); ++i) {
      for (int j = 0; j < 3; ++j) out.at(i * 3 + j) = feat.at((from + i) * 3 + j);
    }
    return out;
  };

  // Assemble the attack training matrix.
  Tensor train_feat({2 * train_per_side, 3});
  std::vector<int> train_labels(static_cast<std::size_t>(2 * train_per_side));
  for (int i = 0; i < train_per_side; ++i) {
    for (int j = 0; j < 3; ++j) {
      train_feat.at(static_cast<std::int64_t>(i) * 3 + j) = member_feat.at(static_cast<std::int64_t>(i) * 3 + j);
      train_feat.at(static_cast<std::int64_t>(train_per_side + i) * 3 + j) =
          non_member_feat.at(static_cast<std::int64_t>(i) * 3 + j);
    }
    train_labels[static_cast<std::size_t>(i)] = 1;
    train_labels[static_cast<std::size_t>(train_per_side + i)] = 0;
  }

  Standardizer standardizer;
  standardizer.fit(train_feat);

  AttackModel attack(rng);
  attack.train(standardizer.apply(train_feat), train_labels, config, rng);

  MiaReport report;
  // Held-out attack accuracy.
  const Tensor held_members = take(member_feat, train_per_side, per_side);
  const Tensor held_non = take(non_member_feat, train_per_side, per_side);
  const double tpr = attack.member_rate(standardizer.apply(held_members));
  const double fpr = attack.member_rate(standardizer.apply(held_non));
  report.attack_accuracy = 0.5 * (tpr + (1.0 - fpr));

  if (!forget_set.empty()) {
    const Tensor f = mia_features(target, forget_set, all_rows(forget_set));
    report.forget_member_rate = attack.member_rate(standardizer.apply(f));
  }
  if (!retain_set.empty()) {
    const Tensor r = mia_features(target, retain_set, all_rows(retain_set));
    report.retain_member_rate = attack.member_rate(standardizer.apply(r));
  }
  return report;
}

}  // namespace quickdrop::attack
