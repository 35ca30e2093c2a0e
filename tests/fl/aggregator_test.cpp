// Aggregator (fl/aggregator.h): the streaming merge is bitwise invariant
// across thread counts {1,4,8}; the quantized probe reproduces
// l2_distance/all_finite bit for bit;
// fold_quantized equals decode-then-fold; malformed frames are rejected
// before any lane is touched; and full resilient rounds produce identical
// bits whether the engine streams (no outlier rule) or buffers the cohort
// (outlier rule on), under faults and quantized transport alike.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/aggregator.h"
#include "fl/quantize.h"
#include "fl/resilient.h"
#include "nn/convnet.h"
#include "nn/state.h"
#include "util/thread_pool.h"

namespace quickdrop::fl {
namespace {

using quickdrop::Shape;
using quickdrop::nn::ModelState;
using quickdrop::nn::StateLayout;

float synth_value(std::int64_t i, float phase) {
  return 0.001f * static_cast<float>((i * 2654435761LL) % 2003) - 1.0f + phase;
}

// Several kStateBlock blocks with a ragged tail; kQuantBlock divides
// kStateBlock, so wire blocks land inside reduction blocks.
const std::vector<Shape> kShapes = {{16, 3, 3, 3}, {16}, {200, 173}, {173}, {3}};

ModelState make_state(const std::shared_ptr<const StateLayout>& layout, float phase) {
  std::vector<float> values(static_cast<std::size_t>(layout->total()));
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = synth_value(static_cast<std::int64_t>(i), phase);
  }
  return {layout, std::move(values)};
}

void expect_bitwise_equal(const ModelState& a, const ModelState& b, const char* what) {
  ASSERT_EQ(a.numel(), b.numel());
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a.at(i)), std::bit_cast<std::uint32_t>(b.at(i)))
        << what << " diverges at flat index " << i;
  }
}

struct PoolScope {
  explicit PoolScope(int threads) : saved(quickdrop::num_threads()) {
    quickdrop::set_num_threads(threads);
  }
  ~PoolScope() { quickdrop::set_num_threads(saved); }
  int saved;
};

TEST(AggregatorTest, TopologyAccounting) {
  // Clients land in one of the 64 canonical lanes; lane buffers are
  // allocated on first fold and counted in memory_bytes().
  const auto layout = StateLayout::of_shapes(kShapes);
  Aggregator agg(layout);
  for (int c = 0; c < 200; ++c) {
    const int lane = Aggregator::lane_of(c);
    ASSERT_GE(lane, 0);
    ASSERT_LT(lane, 64);
  }
  const std::int64_t empty_bytes = agg.memory_bytes();
  agg.fold(3, make_state(layout, 0.0f), 1.0);
  EXPECT_GT(agg.memory_bytes(), empty_bytes);
}

TEST(AggregatorTest, MergeBitsInvariantAcrossThreadCounts) {
  const auto layout = StateLayout::of_shapes(kShapes);
  std::vector<ModelState> states;
  double total_weight = 0.0;
  for (int c = 0; c < 37; ++c) {
    states.push_back(make_state(layout, 0.03f * static_cast<float>(c)));
    total_weight += static_cast<double>(1 + c % 9);
  }

  ModelState reference;
  for (const int threads : {1, 4, 8}) {
    PoolScope pool(threads);
    Aggregator agg(layout);
    for (int c = 0; c < static_cast<int>(states.size()); ++c) {
      agg.fold(c, states[static_cast<std::size_t>(c)], static_cast<double>(1 + c % 9));
    }
    ModelState merged = agg.finalize(1.0 / total_weight);
    if (reference.empty()) {
      reference = std::move(merged);
    } else {
      expect_bitwise_equal(merged, reference, "thread-count sweep");
    }
  }
}

TEST(AggregatorTest, ProbeMatchesMaterializedValidationBitwise) {
  const auto layout = StateLayout::of_shapes(kShapes);
  const ModelState global = make_state(layout, 0.0f);
  const ModelState client = make_state(layout, 0.25f);
  Aggregator agg(layout);

  for (const Codec codec : {Codec::kInt8, Codec::kBf16}) {
    const auto wire = encode_delta(nn::subtract(client, global), codec);
    // The buffered engine's validation path: materialize global + delta,
    // then all_finite / l2_distance.
    const ModelState delta = decode_delta(wire, layout);
    ModelState recon = global;
    nn::axpy(recon, delta, 1.0f);
    const auto probe = agg.probe_quantized(wire, global);
    EXPECT_EQ(probe.finite, nn::all_finite(recon));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(probe.norm),
              std::bit_cast<std::uint64_t>(nn::l2_distance(recon, global)));
  }
}

TEST(AggregatorTest, ProbeFlagsNonFiniteReconstruction) {
  const auto layout = StateLayout::of_shapes(kShapes);
  const ModelState global = make_state(layout, 0.0f);
  ModelState poisoned = make_state(layout, 0.25f);
  poisoned.data()[123] = std::numeric_limits<float>::quiet_NaN();
  Aggregator agg(layout);
  // bf16 keeps NaN payloads representable on the wire.
  const auto wire = encode_delta(nn::subtract(poisoned, global), Codec::kBf16);
  const auto probe = agg.probe_quantized(wire, global);
  EXPECT_FALSE(probe.finite);
}

TEST(AggregatorTest, FoldQuantizedMatchesDecodeThenFoldBitwise) {
  const auto layout = StateLayout::of_shapes(kShapes);
  const ModelState global = make_state(layout, 0.0f);

  for (const Codec codec : {Codec::kInt8, Codec::kBf16}) {
    Aggregator streamed(layout);
    Aggregator buffered(layout);
    double total_weight = 0.0;
    for (int c = 0; c < 11; ++c) {
      const ModelState client = make_state(layout, 0.1f * static_cast<float>(c + 1));
      const auto wire = encode_delta(nn::subtract(client, global), codec);
      const double w = static_cast<double>(2 + c);
      streamed.probe_quantized(wire, global);
      streamed.fold_quantized(c, wire, global, w);
      ModelState recon = global;
      nn::axpy(recon, decode_delta(wire, layout), 1.0f);
      buffered.fold(c, recon, w);
      total_weight += w;
    }
    expect_bitwise_equal(streamed.finalize(1.0 / total_weight),
                         buffered.finalize(1.0 / total_weight),
                         "decode-into-accumulator vs decode-then-fold");
  }
}

TEST(AggregatorTest, MalformedFrameQuarantinedBeforeAnyFold) {
  const auto layout = StateLayout::of_shapes(kShapes);
  const ModelState global = make_state(layout, 0.0f);
  const ModelState client = make_state(layout, 0.2f);
  auto wire = encode_delta(nn::subtract(client, global), Codec::kInt8);
  wire.resize(wire.size() / 2);  // truncated mid-frame

  Aggregator agg(layout);
  EXPECT_THROW(agg.probe_quantized(wire, global), nn::StateError);

  // The failed probe left no trace: folding a good update afterwards gives
  // the same bits as an aggregator that never saw the bad frame.
  Aggregator fresh(layout);
  const auto good = encode_delta(nn::subtract(client, global), Codec::kInt8);
  agg.probe_quantized(good, global);
  agg.fold_quantized(7, good, global, 3.0);
  fresh.probe_quantized(good, global);
  fresh.fold_quantized(7, good, global, 3.0);
  expect_bitwise_equal(agg.finalize(1.0 / 3.0), fresh.finalize(1.0 / 3.0),
                       "post-quarantine fold");
}

// --- Engine-level identity: full resilient rounds through the aggregator. ---

data::SyntheticSpec tiny_spec() {
  data::SyntheticSpec spec;
  spec.num_classes = 3;
  spec.channels = 1;
  spec.image_size = 8;
  spec.train_per_class = 20;
  spec.test_per_class = 10;
  spec.noise = 0.3f;
  spec.max_shift = 1;
  spec.seed = 9;
  return spec;
}

nn::ConvNetConfig tiny_net() {
  nn::ConvNetConfig cfg;
  cfg.in_channels = 1;
  cfg.image_size = 8;
  cfg.num_classes = 3;
  cfg.width = 8;
  cfg.depth = 1;
  return cfg;
}

struct Fixture {
  data::TrainTest tt = data::make_synthetic(tiny_spec());
  std::vector<data::Dataset> clients;
  ModelFactory factory;
  std::unique_ptr<nn::Module> scratch;
  ModelState initial;  ///< pinned start state: the engine mutates `scratch`

  Fixture() {
    Rng prng(1);
    clients = data::materialize(tt.train, data::iid_partition(tt.train, 6, prng));
    auto shared_rng = std::make_shared<Rng>(11);
    factory = [rng = shared_rng]() { return nn::make_convnet(tiny_net(), *rng); };
    scratch = factory();
    initial = nn::state_of(*scratch);
  }

  ModelState run(const ResilientConfig& cfg) {
    SgdLocalUpdate update(2, 8, 0.1f);
    CostMeter cost;
    Rng rng(5);
    return run_resilient(*scratch, initial, clients, update, cfg, rng, cost);
  }
};

ResilientConfig engine_config() {
  ResilientConfig cfg{.rounds = 3, .participation = 1.0f};
  FaultRates rates;
  rates.crash = 0.15f;
  rates.corrupt_nan = 0.1f;
  cfg.faults = FaultPlan(77, rates);
  cfg.defense.min_quorum = 0.3f;
  cfg.defense.max_round_attempts = 3;
  return cfg;
}

TEST(AggregatorEngineTest, RoundBitsInvariantAcrossThreadsAndTransport) {
  Fixture f;
  for (const Codec codec : {Codec::kNone, Codec::kInt8}) {
    ModelState reference;
    for (const int threads : {1, 4}) {
      PoolScope pool(threads);
      auto cfg = engine_config();
      cfg.transport.codec = codec;
      if (threads > 1) cfg.client_model_factory = f.factory;
      ModelState state = f.run(cfg);
      if (reference.empty()) {
        reference = std::move(state);
      } else {
        expect_bitwise_equal(state, reference, "engine thread sweep");
      }
    }
  }
}

TEST(AggregatorEngineTest, StreamingMatchesBufferedModeBitwise) {
  Fixture f;
  // outlier rule off → streaming wave path; a huge multiplier keeps the
  // buffered path's median gate from rejecting anyone, so the accepted set —
  // and therefore the fold order and bits — is identical in both modes.
  auto streaming_cfg = engine_config();
  streaming_cfg.defense.norm_outlier_multiplier = 0.0f;
  auto buffered_cfg = streaming_cfg;
  buffered_cfg.defense.norm_outlier_multiplier = 1e9f;
  const ModelState streamed = f.run(streaming_cfg);
  const ModelState buffered = f.run(buffered_cfg);
  expect_bitwise_equal(streamed, buffered, "streaming vs buffered engine mode");
}

}  // namespace
}  // namespace quickdrop::fl
