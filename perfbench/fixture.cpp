#include "fixture.h"

#include <algorithm>
#include <thread>

#include "data/partition.h"
#include "util/crc64.h"
#include "util/rng.h"

namespace perfbench {

namespace {


/// The module the benchmark's factory hands out when tracing: forwards every
/// call to the real ConvNet and records an `nn.forward` span with the batch
/// row count. Parameters are the inner module's own leaves, so training
/// through the wrapper touches exactly the same tensors.
class TracedModule final : public qd::nn::Module {
 public:
  TracedModule(std::unique_ptr<qd::nn::Module> inner, SpanRecorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  qd::ag::Var forward(const qd::ag::Var& input) override {
    SpanRecorder::Scope span(recorder_, "nn.forward");
    const auto& shape = input.value().shape();
    span.add_rows(shape.empty() ? 0 : shape[0]);
    return inner_->forward(input);
  }

  void collect_parameters(std::vector<qd::ag::Var>& out) override {
    inner_->collect_parameters(out);
  }

 private:
  std::unique_ptr<qd::nn::Module> inner_;
  SpanRecorder* recorder_;
};

}  // namespace

int bench_threads() {
  // One core is left to the HTTP server and load-generator threads and to
  // the rest of the machine, which keeps the parallel rounds from waiting
  // on a preempted worker.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw - 2, 1, 2);
}

Federation build_federation(const FederationSpec& spec, SpanRecorder* recorder) {
  SpanRecorder::Scope span(recorder, "data.generate");
  Federation fed{.spec = spec, .data = qd::data::make_synthetic(qd::data::cifar10_like_spec())};
  qd::Rng prng(kFederationSeed ^ 0x9A97);
  const auto partition = qd::data::dirichlet_partition(fed.data.train, 10, 0.1f, prng);
  fed.clients = qd::data::materialize(fed.data.train, partition);

  fed.net.in_channels = static_cast<int>(fed.data.train.image_shape()[0]);
  fed.net.image_size = static_cast<int>(fed.data.train.image_shape()[1]);
  fed.net.num_classes = fed.data.train.num_classes();
  fed.net.width = 16;
  fed.net.depth = 2;
  fed.net.validate();

  // quickdrop_cli's build(): CLI defaults for every hyperparameter.
  auto& cfg = fed.config;
  cfg.fl_rounds = kTrainRounds;
  cfg.local_steps = 5;
  cfg.batch_size = 32;
  cfg.train_lr = 0.05f;
  cfg.scale = 10;
  cfg.unlearn_lr = 0.05f;
  cfg.recover_lr = 0.03f;
  cfg.max_unlearn_rounds = 4;
  qd::fl::FaultRates rates;
  rates.crash = static_cast<float>(spec.fault_crash);
  rates.corrupt_nan = static_cast<float>(spec.fault_corrupt / 3.0);
  rates.corrupt_inf = static_cast<float>(spec.fault_corrupt / 3.0);
  rates.exploded_norm = static_cast<float>(spec.fault_corrupt / 3.0);
  cfg.faults = qd::fl::FaultPlan(kFaultSeed, rates);
  cfg.defense.norm_outlier_multiplier = 8.0f;
  cfg.defense.min_quorum = 0.0f;
  cfg.defense.max_round_attempts = 1;
  cfg.transport.codec = spec.int8_transport ? qd::fl::Codec::kInt8 : qd::fl::Codec::kNone;
  return fed;
}

std::unique_ptr<qd::core::QuickDrop> make_quickdrop(const Federation& fed,
                                                    SpanRecorder* recorder) {
  SpanRecorder::Scope span(recorder, "core.init");
  auto mrng = std::make_shared<qd::Rng>(kFederationSeed ^ 0xDEED);
  const qd::nn::ConvNetConfig net = fed.net;
  qd::fl::ModelFactory factory;
  if (recorder != nullptr && recorder->enabled()) {
    factory = [mrng, net, recorder]() -> std::unique_ptr<qd::nn::Module> {
      return std::make_unique<TracedModule>(qd::nn::make_convnet(net, *mrng), recorder);
    };
  } else {
    factory = [mrng, net]() -> std::unique_ptr<qd::nn::Module> {
      return qd::nn::make_convnet(net, *mrng);
    };
  }
  return std::make_unique<qd::core::QuickDrop>(factory, fed.clients, fed.config, kFederationSeed);
}

std::unique_ptr<qd::nn::Module> make_eval_model(const Federation& fed) {
  qd::Rng rng(kFederationSeed ^ 0xE7A1);
  return qd::nn::make_convnet(fed.net, rng);
}

std::uint64_t state_crc(const qd::nn::ModelState& state) {
  const auto bytes = std::as_bytes(state.data());
  return qd::crc64(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
}

}  // namespace perfbench
