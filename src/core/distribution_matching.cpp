#include "core/distribution_matching.h"

#include <stdexcept>

#include "nn/convnet.h"
#include "nn/optimizer.h"

namespace quickdrop::core {
namespace {

/// Features of a batch under the ConvNet body (all layers but the final
/// classifier): [N, F].
ag::Var embed(nn::Sequential& net, const ag::Var& images) {
  if (net.size() < 2) throw std::logic_error("distribution matching: embedder too shallow");
  ag::Var x = images;
  for (std::size_t i = 0; i + 1 < net.size(); ++i) x = net.layer(i).forward(x);
  if (x.shape().size() != 2) {
    throw std::logic_error("distribution matching: expected flattened features");
  }
  return x;
}

}  // namespace

ag::Var feature_mean_distance(const ag::Var& synth_features, const ag::Var& real_features) {
  const auto fs = synth_features.shape();
  const auto fr = real_features.shape();
  if (fs.size() != 2 || fr.size() != 2 || fs[1] != fr[1]) {
    throw std::invalid_argument("feature_mean_distance: feature shapes incompatible");
  }
  const ag::Var mean_s = ag::mul_scalar(ag::reduce_sum_to(synth_features, {1, fs[1]}),
                                        1.0f / static_cast<float>(fs[0]));
  const ag::Var mean_r = ag::mul_scalar(ag::reduce_sum_to(real_features, {1, fr[1]}),
                                        1.0f / static_cast<float>(fr[0]));
  return ag::sum_all(ag::square(ag::sub(mean_s, mean_r)));
}

void distill_distribution_matching(const fl::ModelFactory& factory, SyntheticStore& store,
                                   const data::Dataset& client_data, const DmConfig& config,
                                   Rng& rng, fl::CostMeter& cost) {
  if (config.iterations <= 0) return;
  const auto classes = store.present_classes();
  if (classes.empty()) return;

  // One persistent momentum optimizer per class's pixel tensor.
  std::vector<std::unique_ptr<nn::Sgd>> optimizers;
  std::vector<ag::Var> pixel_leaves;
  for (const int c : classes) {
    pixel_leaves.push_back(ag::Var::leaf(store.class_samples(c)));  // shares storage
    optimizers.push_back(std::make_unique<nn::Sgd>(
        std::vector<ag::Var>{pixel_leaves.back()}, config.learning_rate, config.momentum));
  }

  for (int it = 0; it < config.iterations; ++it) {
    const auto model = factory();
    auto* net = dynamic_cast<nn::Sequential*>(model.get());
    if (net == nullptr) {
      throw std::logic_error("distribution matching: factory must build a Sequential");
    }
    for (std::size_t ci = 0; ci < classes.size(); ++ci) {
      const int c = classes[ci];
      const auto rows = client_data.indices_of_class(c);
      if (rows.empty()) continue;
      const auto batch_rows = data::Dataset::sample_batch_indices(rows, config.real_batch, rng);
      auto [real_images, labels] = client_data.batch(batch_rows);
      (void)labels;
      // Nothing differentiates the real embedding: build no graph behind it.
      const ag::Var real_features = [&] {
        const ag::NoGraphScope no_graph;
        return embed(*net, ag::Var::constant(real_images));
      }();
      cost.add_training(static_cast<std::int64_t>(batch_rows.size()));

      const ag::Var synth_features = embed(*net, pixel_leaves[ci]);
      const ag::Var loss = feature_mean_distance(synth_features, real_features);
      const auto grad = ag::grad(loss, {pixel_leaves[ci]});
      optimizers[ci]->step(grad);
      cost.add_distillation(store.class_samples(c).dim(0));
    }
  }
}

}  // namespace quickdrop::core
