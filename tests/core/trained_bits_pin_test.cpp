// Pins the bits of a small distillation training and one class request to
// CRC-64 constants. The tensor kernels may be rewritten for speed only if
// every element keeps its operation chain; this test is the end-to-end
// guard: the trained state, the distilled synthetic stores and the
// unlearned state must hash to the recorded values at 1 and 4 threads and
// under both the scalar and the AVX2 dispatch table. A deliberate change of
// the numerics must re-record the constants and say why.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <vector>

#include "core/quickdrop.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "nn/convnet.h"
#include "tensor/simd.h"
#include "util/crc64.h"
#include "util/thread_pool.h"

namespace quickdrop::core {
namespace {

// Recorded with the kernels that predate the contiguous-run engine.
constexpr std::uint64_t kTrainedCrc = 0x160991006aa545d8ULL;
constexpr std::uint64_t kStoresCrc = 0x50e1345d9b745e51ULL;
constexpr std::uint64_t kUnlearnedCrc = 0x3c73839b62735015ULL;

struct Restore {
  int threads = num_threads();
  ~Restore() {
    set_num_threads(threads);
    simd::force_dispatch(simd::Dispatch::kAuto);
  }
};

std::uint64_t crc_of(std::span<const float> values, std::uint64_t seed = 0) {
  return crc64({reinterpret_cast<const std::uint8_t*>(values.data()), values.size_bytes()}, seed);
}

struct Bits {
  std::uint64_t trained = 0, stores = 0, unlearned = 0;
};

/// Trains a 4-client federation with in-situ distillation for 3 rounds on a
/// depth-2 ConvNet (conv, instance norm, relu, avg-pool twice — every
/// kernel of the hot loop), then serves one class request.
Bits run() {
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.channels = 2;
  spec.image_size = 8;
  spec.train_per_class = 24;
  spec.test_per_class = 4;
  spec.noise = 0.35f;
  spec.seed = 5;
  const data::TrainTest tt = data::make_synthetic(spec);
  Rng prng(7);
  const auto clients =
      data::materialize(tt.train, data::dirichlet_partition(tt.train, 4, 0.5f, prng));
  nn::ConvNetConfig net;
  net.in_channels = 2;
  net.image_size = 8;
  net.num_classes = 4;
  net.width = 6;
  net.depth = 2;
  auto shared_rng = std::make_shared<Rng>(19);
  fl::ModelFactory factory = [shared_rng, net] { return nn::make_convnet(net, *shared_rng); };

  QuickDropConfig cfg;
  cfg.fl_rounds = 3;
  cfg.local_steps = 2;
  cfg.batch_size = 12;
  cfg.train_lr = 0.1f;
  cfg.scale = 8;
  cfg.unlearn_local_steps = 2;
  cfg.unlearn_batch_size = 12;
  cfg.unlearn_lr = 0.05f;
  cfg.recover_lr = 0.05f;
  QuickDrop qd(factory, clients, cfg, 99);

  Bits bits;
  const nn::ModelState trained = qd.train();
  EXPECT_GT(qd.training_stats().cost.distill_sample_grads, 0);  // distillation ran
  bits.trained = crc_of(trained.data());
  for (const SyntheticStore& store : qd.stores()) {
    for (const int c : store.present_classes()) {
      bits.stores = crc_of(store.class_samples(c).data(), bits.stores);
    }
  }
  bits.unlearned = crc_of(qd.unlearn(trained, UnlearningRequest::for_class(2)).data());
  return bits;
}

TEST(TrainedBitsPin, DistillationTrainingAndClassRequestMatchRecordedCrcs) {
  const Restore restore;
  for (const int threads : {1, 4}) {
    for (const simd::Dispatch d : {simd::Dispatch::kScalar, simd::Dispatch::kAuto}) {
      set_num_threads(threads);
      simd::force_dispatch(d);
      const Bits bits = run();
      std::printf("threads %d, %s: trained %016llx stores %016llx unlearned %016llx\n", threads,
                  simd::active().name, static_cast<unsigned long long>(bits.trained),
                  static_cast<unsigned long long>(bits.stores),
                  static_cast<unsigned long long>(bits.unlearned));
      EXPECT_EQ(bits.trained, kTrainedCrc) << threads << " threads, " << simd::active().name;
      EXPECT_EQ(bits.stores, kStoresCrc) << threads << " threads, " << simd::active().name;
      EXPECT_EQ(bits.unlearned, kUnlearnedCrc) << threads << " threads, " << simd::active().name;
    }
  }
}

}  // namespace
}  // namespace quickdrop::core
