#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "metrics/evaluate.h"
#include "nn/convnet.h"
#include "tensor/kernels.h"

namespace quickdrop::metrics {
namespace {

/// A deterministic "model" whose logit for class c is high iff the image's
/// first pixel encodes c — lets us compute expected metrics by hand.
class OracleModel final : public nn::Module {
 public:
  ag::Var forward(const ag::Var& input) override {
    const auto& s = input.shape();
    const std::int64_t n = s[0];
    const std::int64_t stride = input.value().numel() / n;
    Tensor logits({n, 3});
    for (std::int64_t i = 0; i < n; ++i) {
      const int c = static_cast<int>(input.value().at(i * stride));
      for (int j = 0; j < 3; ++j) logits.at(i * 3 + j) = j == c ? 4.0f : 0.0f;
    }
    return ag::Var::constant(logits);
  }
  void collect_parameters(std::vector<ag::Var>&) override {}
};

data::Dataset encoded_dataset(const std::vector<int>& encoded, const std::vector<int>& labels) {
  Tensor images({static_cast<std::int64_t>(encoded.size()), 1, 2, 2});
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    images.at(static_cast<std::int64_t>(i) * 4) = static_cast<float>(encoded[i]);
  }
  return data::Dataset(std::move(images), labels, 3);
}

TEST(EvaluateTest, AccuracyExact) {
  OracleModel model;
  // Predictions: 0,1,2,0 ; labels: 0,1,1,2 -> 2/4 correct.
  const auto d = encoded_dataset({0, 1, 2, 0}, {0, 1, 1, 2});
  EXPECT_DOUBLE_EQ(accuracy(model, d), 0.5);
}

TEST(EvaluateTest, EmptyDatasetIsZero) {
  OracleModel model;
  const data::Dataset d(Shape{1, 2, 2}, 3);
  EXPECT_DOUBLE_EQ(accuracy(model, d), 0.0);
}

TEST(EvaluateTest, PerClassAccuracy) {
  OracleModel model;
  const auto d = encoded_dataset({0, 0, 1, 2}, {0, 1, 1, 1});
  const auto pc = per_class_accuracy(model, d);
  EXPECT_DOUBLE_EQ(pc[0], 1.0);            // one class-0 sample, predicted 0
  EXPECT_NEAR(pc[1], 1.0 / 3.0, 1e-12);    // of three class-1 samples, one hit
  EXPECT_DOUBLE_EQ(pc[2], 0.0);            // class 2 absent -> 0
}

TEST(EvaluateTest, ClassFilters) {
  OracleModel model;
  const auto d = encoded_dataset({0, 1, 2, 2}, {0, 1, 2, 0});
  EXPECT_DOUBLE_EQ(accuracy_on_classes(model, d, {0}), 0.5);
  EXPECT_DOUBLE_EQ(accuracy_excluding_classes(model, d, {0}), 1.0);
}

TEST(EvaluateTest, AccuracyOnIndices) {
  OracleModel model;
  const auto d = encoded_dataset({0, 1, 2, 0}, {0, 1, 1, 2});
  EXPECT_DOUBLE_EQ(accuracy_on_indices(model, d, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(accuracy_on_indices(model, d, {2, 3}), 0.0);
}

TEST(EvaluateTest, MeanLossMatchesHandComputation) {
  OracleModel model;
  const auto d = encoded_dataset({0}, {0});
  // logits (4,0,0): p0 = e^4/(e^4+2); loss = -log p0.
  const double p0 = std::exp(4.0) / (std::exp(4.0) + 2.0);
  EXPECT_NEAR(mean_loss(model, d), -std::log(p0), 1e-5);
}

TEST(EvaluateTest, SoftmaxProbabilitiesSumToOne) {
  OracleModel model;
  const auto d = encoded_dataset({0, 1}, {0, 1});
  const auto p = softmax_probabilities(model, d, {0, 1});
  for (int i = 0; i < 2; ++i) {
    double row = 0;
    for (int j = 0; j < 3; ++j) row += p.at(i * 3 + j);
    EXPECT_NEAR(row, 1.0, 1e-5);
  }
  EXPECT_GT(p.at(0), 0.9);  // confident on the encoded class
}

TEST(EvaluateTest, BatchingDoesNotChangeResult) {
  OracleModel model;
  const auto d = encoded_dataset({0, 1, 2, 0, 1}, {0, 1, 2, 1, 1});
  EXPECT_DOUBLE_EQ(accuracy(model, d, 2), accuracy(model, d, 128));
}

TEST(EvaluateTest, ConvNetAccuracyMatchesGraphForward) {
  // A trained-shape model through the graph-free evaluation forward: the
  // accuracy must be the one the recorded forward's logits give, batch by
  // batch.
  Rng rng(9);
  nn::ConvNetConfig cfg;
  cfg.in_channels = 1;
  cfg.image_size = 8;
  cfg.num_classes = 3;
  cfg.width = 8;
  auto net = nn::make_convnet(cfg, rng);
  std::vector<int> labels(11);
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = static_cast<int>(i % 3);
  const data::Dataset d(Tensor::randn({11, 1, 8, 8}, rng), labels, 3);
  int correct = 0;
  for (int start = 0; start < d.size(); start += 4) {
    std::vector<int> rows;
    for (int i = start; i < std::min(d.size(), start + 4); ++i) rows.push_back(i);
    auto [images, batch_labels] = d.batch(rows);
    const auto preds = kernels::argmax_rows(net->forward_tensor(images).value());
    for (std::size_t i = 0; i < rows.size(); ++i) correct += preds[i] == batch_labels[i];
  }
  EXPECT_DOUBLE_EQ(accuracy(*net, d, 4), static_cast<double>(correct) / 11.0);
}

}  // namespace
}  // namespace quickdrop::metrics
