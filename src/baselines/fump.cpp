#include "baselines/fump.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "nn/convnet.h"
#include "util/timer.h"

namespace quickdrop::baselines {
namespace {

/// Index of the last Conv2d in the Sequential, and of the ReLU that follows.
struct ConvLocation {
  std::size_t conv = 0;
  std::size_t relu = 0;
  int channels = 0;
};

ConvLocation locate_last_conv(nn::Sequential& net) {
  ConvLocation loc;
  bool found = false;
  for (std::size_t i = 0; i < net.size(); ++i) {
    if (auto* conv = dynamic_cast<nn::Conv2d*>(&net.layer(i))) {
      loc.conv = i;
      loc.channels = conv->out_channels();
      found = true;
      // Find the activation following this conv.
      for (std::size_t j = i + 1; j < net.size(); ++j) {
        if (dynamic_cast<nn::ReLU*>(&net.layer(j)) != nullptr) {
          loc.relu = j;
          break;
        }
      }
    }
  }
  if (!found) throw std::logic_error("FU-MP: model has no Conv2d layer");
  return loc;
}

/// Mean activation per channel of layer `upto` (inclusive) for a batch.
std::vector<double> mean_channel_activation(nn::Sequential& net, std::size_t upto,
                                            const Tensor& images) {
  Tensor act = images;
  for (std::size_t i = 0; i <= upto; ++i) act = net.layer(i).predict(act);  // [N, K, H, W]
  const std::int64_t n = act.dim(0), k = act.dim(1), hw = act.dim(2) * act.dim(3);
  std::vector<double> mean(static_cast<std::size_t>(k), 0.0);
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t c = 0; c < k; ++c) {
      double acc = 0.0;
      const auto base = (b * k + c) * hw;
      for (std::int64_t p = 0; p < hw; ++p) acc += act.at(base + p);
      mean[static_cast<std::size_t>(c)] += acc / static_cast<double>(hw);
    }
  }
  for (auto& m : mean) m /= static_cast<double>(n);
  return mean;
}

}  // namespace

std::vector<std::vector<double>> FuMp::channel_scores(nn::Module& model,
                                                      const TrainedFederation& fed,
                                                      int samples_per_class) {
  auto* net = dynamic_cast<nn::Sequential*>(&model);
  if (net == nullptr) throw std::logic_error("FU-MP: model must be a Sequential ConvNet");
  const auto loc = locate_last_conv(*net);
  const int num_classes = fed.num_classes();

  // Per-class mean channel activations, pooled over clients' local data
  // (each client scores locally in the real protocol; pooling is the same
  // computation).
  std::vector<std::vector<double>> activation(
      static_cast<std::size_t>(num_classes),
      std::vector<double>(static_cast<std::size_t>(loc.channels), 0.0));
  Rng rng(0xF0A9);
  for (int c = 0; c < num_classes; ++c) {
    // Gather up to samples_per_class rows of class c across clients.
    int taken = 0;
    std::vector<double> acc(static_cast<std::size_t>(loc.channels), 0.0);
    int batches = 0;
    for (const auto& client : fed.client_train()) {
      if (taken >= samples_per_class) break;
      auto rows = client.indices_of_class(c);
      if (rows.empty()) continue;
      rows = data::Dataset::sample_batch_indices(
          rows, std::min<int>(samples_per_class - taken, static_cast<int>(rows.size())), rng);
      auto [images, labels] = client.batch(rows);
      (void)labels;
      const auto mean = mean_channel_activation(*net, loc.relu, images);
      for (std::size_t k = 0; k < mean.size(); ++k) acc[k] += mean[k];
      ++batches;
      taken += static_cast<int>(rows.size());
    }
    if (batches > 0) {
      for (std::size_t k = 0; k < acc.size(); ++k) {
        activation[static_cast<std::size_t>(c)][k] = acc[k] / batches;
      }
    }
  }

  // TF-IDF scoring: TF normalizes a channel's activation within the class;
  // IDF discounts channels that fire for many classes.
  std::vector<std::vector<double>> scores = activation;
  for (std::size_t k = 0; k < static_cast<std::size_t>(loc.channels); ++k) {
    double column_mean = 0.0;
    for (int c = 0; c < num_classes; ++c) column_mean += activation[static_cast<std::size_t>(c)][k];
    column_mean /= num_classes;
    int active_classes = 0;
    for (int c = 0; c < num_classes; ++c) {
      active_classes += activation[static_cast<std::size_t>(c)][k] > column_mean;
    }
    const double idf =
        std::log(static_cast<double>(num_classes) / (1.0 + static_cast<double>(active_classes)));
    for (int c = 0; c < num_classes; ++c) {
      const auto& row = activation[static_cast<std::size_t>(c)];
      const double row_sum = std::accumulate(row.begin(), row.end(), 0.0) + 1e-12;
      scores[static_cast<std::size_t>(c)][k] = row[k] / row_sum * idf;
    }
  }
  return scores;
}

UnlearnOutcome FuMp::unlearn(TrainedFederation& fed, const core::UnlearningRequest& request) {
  if (request.kind != core::UnlearningRequest::Kind::kClass) {
    throw std::invalid_argument("FU-MP supports class-level unlearning only");
  }
  UnlearnOutcome out;
  const Timer timer;
  const auto model = fed.factory();
  nn::load_state(*model, fed.global);
  auto* net = dynamic_cast<nn::Sequential*>(model.get());
  if (net == nullptr) throw std::logic_error("FU-MP: model must be a Sequential ConvNet");
  const auto loc = locate_last_conv(*net);

  constexpr int kScoreSamples = 32;
  const auto scores = channel_scores(*model, fed, kScoreSamples);
  const auto& target_scores = scores.at(static_cast<std::size_t>(request.target));

  // Prune the channels most discriminative for the target class.
  const int prune_count = std::max(
      1, static_cast<int>(static_cast<float>(loc.channels) * config_.fump_prune_ratio));
  std::vector<int> order(target_scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return target_scores[static_cast<std::size_t>(a)] >
                                        target_scores[static_cast<std::size_t>(b)]; });

  auto* conv = dynamic_cast<nn::Conv2d*>(&net->layer(loc.conv));
  Tensor& weight = conv->weight().mutable_value();  // [F, C*k*k]
  Tensor& bias = conv->bias().mutable_value();      // [F]
  const std::int64_t row = weight.dim(1);
  for (int i = 0; i < prune_count; ++i) {
    const int k = order[static_cast<std::size_t>(i)];
    for (std::int64_t j = 0; j < row; ++j) weight.at(k * row + j) = 0.0f;
    bias.at(k) = 0.0f;
    // Zero the following InstanceNorm's affine parameters for this channel so
    // the pruned channel is exactly silent.
    if (loc.conv + 1 < net->size()) {
      if (auto* norm = dynamic_cast<nn::InstanceNorm2d*>(&net->layer(loc.conv + 1))) {
        auto params = norm->parameters();
        params[0].mutable_value().at(k) = 0.0f;  // gamma [1,C,1,1]
        params[1].mutable_value().at(k) = 0.0f;  // beta
      }
    }
  }
  out.after_unlearn = nn::state_of(*model);
  out.unlearn.seconds = timer.seconds();
  out.unlearn.rounds = 1;
  // Scoring touches the pooled per-class samples (inference only).
  out.unlearn.data_size = static_cast<std::int64_t>(kScoreSamples) * fed.num_classes();

  const auto retain = original_retain(fed, request);
  out.state = run_rounds(fed, out.after_unlearn, retain, config_.fump_recovery_rounds,
                         config_.recover_lr, nn::UpdateDirection::kDescent, &out.recovery, 0x07);
  return out;
}

nn::ModelState FuMp::relearn(TrainedFederation&, const nn::ModelState&,
                             const core::UnlearningRequest&, StageReport*) {
  throw std::logic_error("FU-MP cannot relearn: channel pruning is irreversible");
}

}  // namespace quickdrop::baselines
