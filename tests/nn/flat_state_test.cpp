// Parameter-plane tests: StateLayout hashing, FlatState kernels, the
// double-precision weighted_average contract, thread-count invariance of the
// pooled kernels, and fuzz-style negative tests over mutated serialized
// streams (satellites of the flat-state refactor; see DESIGN.md §11).

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "nn/convnet.h"
#include "nn/state.h"
#include "weighted_average_oracle.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using quickdrop::Rng;
using quickdrop::Shape;
using quickdrop::Tensor;
using quickdrop::nn::FlatState;
using quickdrop::nn::ModelState;
using quickdrop::nn::StateError;
using quickdrop::nn::StateLayout;

/// Deterministic pseudo-values without depending on Rng stream layout.
float synth_value(std::int64_t i, float phase) {
  return 0.001f * static_cast<float>((i * 2654435761LL) % 2003) - 1.0f + phase;
}

ModelState make_state(const std::vector<Shape>& shapes, float phase) {
  auto layout = StateLayout::of_shapes(shapes);
  std::vector<float> values(static_cast<std::size_t>(layout->total()));
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = synth_value(static_cast<std::int64_t>(i), phase);
  }
  return {std::move(layout), std::move(values)};
}

const std::vector<Shape> kShapes = {{7, 3, 3, 3}, {7}, {33, 7}, {33}};

void expect_bitwise_equal(const ModelState& a, const ModelState& b) {
  ASSERT_EQ(a.numel(), b.numel());
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a.at(i), b.at(i)) << "flat index " << i;
  }
}

/// Restores the ambient thread count when a test returns.
struct PoolScope {
  explicit PoolScope(int threads) : saved(quickdrop::num_threads()) {
    quickdrop::set_num_threads(threads);
  }
  ~PoolScope() { quickdrop::set_num_threads(saved); }
  int saved;
};

// ---------------------------------------------------------------------------
// Layout
// ---------------------------------------------------------------------------

TEST(StateLayout, OffsetsAndTotals) {
  const auto layout = StateLayout::of_shapes({{2, 3}, {5}, {1, 1, 4}});
  EXPECT_EQ(layout->size(), 3u);
  EXPECT_EQ(layout->offset(0), 0);
  EXPECT_EQ(layout->offset(1), 6);
  EXPECT_EQ(layout->offset(2), 11);
  EXPECT_EQ(layout->total(), 15);
  EXPECT_EQ(layout->numel(0), 6);
  EXPECT_EQ(layout->numel(2), 4);
}

TEST(StateLayout, HashSeparatesShapeLists) {
  const auto a = StateLayout::of_shapes({{2, 3}, {5}});
  const auto b = StateLayout::of_shapes({{2, 3}, {5}});
  EXPECT_EQ(a->hash(), b->hash());
  // Same total numel, different split -> different hash.
  EXPECT_NE(a->hash(), StateLayout::of_shapes({{3, 2}, {5}})->hash());
  EXPECT_NE(a->hash(), StateLayout::of_shapes({{2, 3, 5}})->hash());
  EXPECT_NE(a->hash(), StateLayout::of_shapes({{2, 3}})->hash());
  EXPECT_NE(a->hash(), StateLayout::of_shapes({})->hash());
}

TEST(StateLayout, DerivedStatesShareTheManifest) {
  const auto a = make_state(kShapes, 0.0f);
  const auto b = make_state(kShapes, 0.5f);
  // subtract/zeros_like propagate a's manifest pointer, not just its hash.
  EXPECT_EQ(quickdrop::nn::subtract(a, b).layout().get(), a.layout().get());
  EXPECT_EQ(quickdrop::nn::zeros_like(a).layout().get(), a.layout().get());
  const std::vector<ModelState> states = {a, b};
  const std::vector<float> weights = {0.5f, 0.5f};
  EXPECT_EQ(quickdrop::nn::oracle::weighted_average(states, weights).layout().get(),
            a.layout().get());
}

TEST(FlatState, ConstructorRejectsSizeMismatch) {
  auto layout = StateLayout::of_shapes({{2, 2}});
  EXPECT_THROW(FlatState(layout, std::vector<float>(3)), std::invalid_argument);
}

TEST(FlatState, KernelsRejectLayoutMismatch) {
  auto a = make_state({{4}}, 0.0f);
  const auto b = make_state({{2, 2}}, 0.0f);
  EXPECT_THROW(quickdrop::nn::axpy(a, b, 1.0f), std::invalid_argument);
  EXPECT_THROW(quickdrop::nn::subtract(a, b), std::invalid_argument);
  EXPECT_THROW(quickdrop::nn::l2_distance(a, b), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Module interop
// ---------------------------------------------------------------------------

TEST(FlatState, SnapshotIntoMatchesStateOfAndLoadRoundTrips) {
  Rng rng(7);
  const quickdrop::nn::ConvNetConfig config{
      .in_channels = 1, .image_size = 8, .num_classes = 3, .width = 4, .depth = 1};
  auto net = quickdrop::nn::make_convnet(config, rng);
  const ModelState snap = quickdrop::nn::state_of(*net);

  ModelState preallocated{snap.layout()};
  quickdrop::nn::snapshot_into(*net, preallocated);
  expect_bitwise_equal(snap, preallocated);

  // Perturb, load back, snapshot again: must round-trip exactly.
  ModelState perturbed = snap;
  quickdrop::nn::scale(perturbed, -1.5f);
  quickdrop::nn::load_state(*net, perturbed);
  expect_bitwise_equal(quickdrop::nn::state_of(*net), perturbed);

  // snapshot_into with a foreign layout is a typed error.
  ModelState wrong{StateLayout::of_shapes({{3}})};
  EXPECT_THROW(quickdrop::nn::snapshot_into(*net, wrong), StateError);
}

TEST(FlatState, FromTensorsMatchesPerTensorContents) {
  Tensor a({2, 3});
  Tensor b({4});
  for (std::int64_t i = 0; i < a.numel(); ++i) a.at(i) = static_cast<float>(i) * 0.25f;
  for (std::int64_t i = 0; i < b.numel(); ++i) b.at(i) = -static_cast<float>(i);
  const auto state = FlatState::from_tensors(std::vector<Tensor>{a, b});
  ASSERT_EQ(state.size(), 2u);
  EXPECT_EQ(state.numel(), 10);
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(state.at(i), a.at(i));
  for (std::int64_t i = 0; i < b.numel(); ++i) EXPECT_EQ(state.at(6 + i), b.at(i));
  // tensor(i) materializes an independent deep copy.
  Tensor back = state.tensor(1);
  back.at(0) = 99.0f;
  EXPECT_NE(back.at(0), state.at(6));
}

// ---------------------------------------------------------------------------
// weighted_average: double-precision accumulation
// ---------------------------------------------------------------------------

TEST(StateKernels, WeightedAverageMatchesSerialDoubleOracle) {
  // Many small-weight clients: float accumulation would lose low-order bits;
  // the kernel must match a serial double-precision oracle bitwise.
  constexpr int kClients = 96;
  std::vector<ModelState> states;
  std::vector<float> weights;
  states.reserve(kClients);
  float weight_sum = 0.0f;
  for (int c = 0; c < kClients; ++c) {
    states.push_back(make_state(kShapes, 0.01f * static_cast<float>(c)));
    const float w = 1.0f / static_cast<float>(kClients + (c % 7));
    weights.push_back(w);
    weight_sum += w;
  }
  (void)weight_sum;
  const ModelState avg = quickdrop::nn::oracle::weighted_average(states, weights);

  for (std::int64_t u = 0; u < avg.numel(); ++u) {
    double acc = 0.0;
    for (int c = 0; c < kClients; ++c) {
      acc += static_cast<double>(weights[static_cast<std::size_t>(c)]) *
             static_cast<double>(states[static_cast<std::size_t>(c)].at(u));
    }
    ASSERT_EQ(avg.at(u), static_cast<float>(acc)) << "flat index " << u;
  }
}

// ---------------------------------------------------------------------------
// Thread-count invariance
// ---------------------------------------------------------------------------

TEST(StateKernels, BitwiseIdenticalAcrossThreadCounts) {
  // Big enough that the pooled kernels actually split into multiple chunks.
  const std::vector<Shape> big = {{64, 33, 3, 3}, {64}, {150, 64}, {150}};
  const auto a0 = make_state(big, 0.0f);
  const auto b0 = make_state(big, 0.25f);
  std::vector<ModelState> clients;
  std::vector<float> weights;
  for (int c = 0; c < 9; ++c) {
    clients.push_back(make_state(big, 0.05f * static_cast<float>(c)));
    weights.push_back(1.0f / 9.0f);
  }

  struct Results {
    ModelState axpy_out, sub, avg;
    double norm = 0.0, dist = 0.0;
  };
  auto run = [&](int threads) {
    PoolScope scope(threads);
    Results r;
    r.axpy_out = a0;
    quickdrop::nn::axpy(r.axpy_out, b0, 0.3f);
    quickdrop::nn::scale(r.axpy_out, 1.7f);
    r.sub = quickdrop::nn::subtract(a0, b0);
    r.avg = quickdrop::nn::oracle::weighted_average(clients, weights);
    r.norm = quickdrop::nn::l2_norm(a0);
    r.dist = quickdrop::nn::l2_distance(a0, b0);
    EXPECT_TRUE(quickdrop::nn::all_finite(r.avg));
    return r;
  };

  const Results base = run(1);
  for (const int threads : {2, 4, 8}) {
    const Results r = run(threads);
    expect_bitwise_equal(base.axpy_out, r.axpy_out);
    expect_bitwise_equal(base.sub, r.sub);
    expect_bitwise_equal(base.avg, r.avg);
    EXPECT_EQ(base.norm, r.norm) << threads << " threads";
    EXPECT_EQ(base.dist, r.dist) << threads << " threads";
  }
}

TEST(StateKernels, L2DistanceMatchesSubtractThenNormBitwise) {
  const auto a = make_state(kShapes, 0.0f);
  const auto b = make_state(kShapes, 0.333f);
  EXPECT_EQ(quickdrop::nn::l2_distance(a, b),
            quickdrop::nn::l2_norm(quickdrop::nn::subtract(a, b)));
}

// ---------------------------------------------------------------------------
// Serialization: round trips and fuzz-style negative tests
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> u64_le(std::uint64_t v) {
  std::vector<std::uint8_t> out(8);
  for (int i = 0; i < 8; ++i) out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
  return out;
}

void append_u64(std::vector<std::uint8_t>& bytes, std::uint64_t v) {
  const auto le = u64_le(v);
  bytes.insert(bytes.end(), le.begin(), le.end());
}

void append_f32(std::vector<std::uint8_t>& bytes, float v) {
  std::uint8_t raw[sizeof(float)];
  std::memcpy(raw, &v, sizeof(float));
  bytes.insert(bytes.end(), raw, raw + sizeof(float));
}

void overwrite_u64(std::vector<std::uint8_t>& bytes, std::size_t offset, std::uint64_t v) {
  const auto le = u64_le(v);
  std::copy(le.begin(), le.end(), bytes.begin() + static_cast<std::ptrdiff_t>(offset));
}

TEST(StateSerialization, RoundTripPreservesLayoutAndPayload) {
  const auto state = make_state(kShapes, 0.125f);
  const auto bytes = quickdrop::nn::serialize_state(state);
  const auto back = quickdrop::nn::deserialize_state(bytes);
  ASSERT_FALSE(back.empty());
  EXPECT_EQ(back.layout()->hash(), state.layout()->hash());
  expect_bitwise_equal(state, back);
}

TEST(StateSerialization, EmptyStateRoundTripsToEmpty) {
  const auto bytes = quickdrop::nn::serialize_state(ModelState{});
  const auto back = quickdrop::nn::deserialize_state(bytes);
  EXPECT_TRUE(back.empty());
}

TEST(StateSerialization, RejectsLegacyV1Stream) {
  // The pre-FlatState v1 stream: count, then per tensor (rank, dims...,
  // floats), with no magic and no layout hash. Only the v2 magic is read.
  std::vector<std::uint8_t> bytes;
  append_u64(bytes, 1);  // one tensor
  append_u64(bytes, 2);  // rank
  append_u64(bytes, 2);
  append_u64(bytes, 2);
  for (std::int64_t i = 0; i < 4; ++i) append_f32(bytes, static_cast<float>(i) + 0.5f);
  EXPECT_THROW(quickdrop::nn::deserialize_state(bytes), StateError);
  // The empty v1 stream (a zero parameter count) is refused as well.
  EXPECT_THROW(quickdrop::nn::deserialize_state(std::vector<std::uint8_t>(8, 0)), StateError);
}

TEST(StateSerialization, EveryTruncationOfV2StreamThrowsTypedError) {
  const auto state = make_state({{3, 4}, {5}}, 0.25f);
  const auto bytes = quickdrop::nn::serialize_state(state);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(
        quickdrop::nn::deserialize_state(std::span(bytes.data(), len)), StateError)
        << "prefix of " << len << " bytes must not deserialize";
  }
}

TEST(StateSerialization, TrailingBytesAreRejected) {
  auto bytes = quickdrop::nn::serialize_state(make_state({{2, 2}}, 0.0f));
  bytes.push_back(0);
  EXPECT_THROW(quickdrop::nn::deserialize_state(bytes), StateError);
}

TEST(StateSerialization, LayoutHashMismatchIsRejected) {
  auto bytes = quickdrop::nn::serialize_state(make_state({{2, 2}}, 0.0f));
  // Byte 8 is the low byte of the stored layout hash.
  bytes[8] ^= 0xFF;
  EXPECT_THROW(quickdrop::nn::deserialize_state(bytes), StateError);
}

TEST(StateSerialization, OversizedCountRankAndDimsAreRejected) {
  const auto state = make_state({{2, 2}}, 0.0f);
  const auto bytes = quickdrop::nn::serialize_state(state);

  {
    auto mutated = bytes;  // parameter count beyond the cap
    overwrite_u64(mutated, 16, (1u << 20) + 1);
    EXPECT_THROW(quickdrop::nn::deserialize_state(mutated), StateError);
  }
  {
    auto mutated = bytes;  // rank beyond the cap
    overwrite_u64(mutated, 24, 17);
    EXPECT_THROW(quickdrop::nn::deserialize_state(mutated), StateError);
  }
  {
    auto mutated = bytes;  // single dimension beyond the element cap
    overwrite_u64(mutated, 32, (std::uint64_t{1} << 31) + 1);
    EXPECT_THROW(quickdrop::nn::deserialize_state(mutated), StateError);
  }
  {
    auto mutated = bytes;  // dims whose product overflows the element cap
    overwrite_u64(mutated, 32, std::uint64_t{1} << 30);
    overwrite_u64(mutated, 40, std::uint64_t{1} << 30);
    EXPECT_THROW(quickdrop::nn::deserialize_state(mutated), StateError);
  }
  {
    auto mutated = bytes;  // declared total disagrees with the manifest
    overwrite_u64(mutated, 48, 5);
    EXPECT_THROW(quickdrop::nn::deserialize_state(mutated), StateError);
  }
}

TEST(StateSerialization, ExhaustiveSingleByteCorruptionNeverYieldsPartialState) {
  // Flip every byte of the header region one at a time: each mutation either
  // still deserializes to a complete, well-formed state (e.g. a payload-byte
  // flip or a benign dim rewrite that keeps hash+total consistent — which a
  // hash-preserving flip cannot do, so header flips must throw) or throws
  // StateError. Nothing may crash, hang, or return a half-read state.
  const auto state = make_state({{3, 2}, {4}}, 0.75f);
  const auto bytes = quickdrop::nn::serialize_state(state);
  int threw = 0, survived = 0;
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (const std::uint8_t flip : {std::uint8_t{0x01}, std::uint8_t{0xFF}}) {
      auto mutated = bytes;
      mutated[pos] ^= flip;
      try {
        const auto back = quickdrop::nn::deserialize_state(mutated);
        ++survived;
        // A successful parse must be internally complete.
        EXPECT_EQ(back.numel(),
                  back.empty() ? 0 : back.layout()->total());
      } catch (const StateError&) {
        ++threw;
      }
    }
  }
  // The header (magic/hash/manifest) is self-checking: most flips there must
  // throw; payload flips survive. Both classes must be non-empty.
  EXPECT_GT(threw, 0);
  EXPECT_GT(survived, 0);
}

}  // namespace
