// Quantized client-update transport (fl/quantize.h): codec round-trips and
// error bounds, the layout-hash-gated wire framing, malformed-frame
// rejection, the ≤30% byte budget, and end-to-end determinism of quantized
// federated rounds (including quarantine of corrupted uploads riding raw
// blocks).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/quantize.h"
#include "fl/resilient.h"
#include "nn/convnet.h"
#include "nn/state.h"

namespace quickdrop::fl {
namespace {

using quickdrop::Shape;
using quickdrop::nn::ModelState;
using quickdrop::nn::StateLayout;

float synth_value(std::int64_t i, float scale) {
  return scale * (0.001f * static_cast<float>((i * 2654435761LL) % 2003) - 1.0f);
}

ModelState make_state(const std::vector<Shape>& shapes, float scale) {
  auto layout = StateLayout::of_shapes(shapes);
  std::vector<float> values(static_cast<std::size_t>(layout->total()));
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = synth_value(static_cast<std::int64_t>(i), scale);
  }
  return {std::move(layout), std::move(values)};
}

// Spans multiple kQuantBlock blocks with a ragged tail.
const std::vector<Shape> kShapes = {{16, 3, 3, 3}, {16}, {40, 173}, {173}};

double block_amax(const ModelState& s, std::int64_t lo, std::int64_t len) {
  double amax = 0.0;
  for (std::int64_t i = lo; i < lo + len; ++i) {
    amax = std::max(amax, std::fabs(static_cast<double>(s.at(i))));
  }
  return amax;
}

TEST(QuantizeCodec, CodecNames) {
  EXPECT_EQ(codec_from_string("off"), Codec::kNone);
  EXPECT_EQ(codec_from_string("none"), Codec::kNone);
  EXPECT_EQ(codec_from_string("int8"), Codec::kInt8);
  EXPECT_EQ(codec_from_string("bf16"), Codec::kBf16);
  EXPECT_THROW(codec_from_string("fp8"), std::invalid_argument);
  EXPECT_STREQ(codec_name(Codec::kInt8), "int8");
  EXPECT_STREQ(codec_name(Codec::kBf16), "bf16");
  EXPECT_STREQ(codec_name(Codec::kNone), "off");
}

TEST(QuantizeCodec, Int8RoundTripWithinHalfStep) {
  const ModelState delta = make_state(kShapes, 0.02f);
  const auto wire = encode_delta(delta, Codec::kInt8);
  const ModelState back = decode_delta(wire, delta.layout());
  ASSERT_EQ(back.numel(), delta.numel());
  for (std::int64_t lo = 0; lo < delta.numel(); lo += kQuantBlock) {
    const std::int64_t len = std::min(delta.numel() - lo, kQuantBlock);
    // Symmetric per-block scale: every value is within half a quantization
    // step of the original (plus fp32 representation slack on the product).
    const double step = block_amax(delta, lo, len) / 127.0;
    for (std::int64_t i = lo; i < lo + len; ++i) {
      EXPECT_NEAR(back.at(i), delta.at(i), 0.5 * step + 1e-7)
          << "int8 error bound violated at " << i;
    }
  }
}

TEST(QuantizeCodec, Bf16RoundTripWithinMantissaStep) {
  const ModelState delta = make_state(kShapes, 0.02f);
  const auto wire = encode_delta(delta, Codec::kBf16);
  const ModelState back = decode_delta(wire, delta.layout());
  for (std::int64_t i = 0; i < delta.numel(); ++i) {
    // bf16 keeps 8 mantissa bits: round-to-nearest error <= 2^-9 relative.
    const double tol = std::fabs(static_cast<double>(delta.at(i))) * 0x1p-8 + 1e-38;
    EXPECT_NEAR(back.at(i), delta.at(i), tol) << "bf16 error bound violated at " << i;
  }
}

TEST(QuantizeCodec, EncodingIsDeterministic) {
  const ModelState delta = make_state(kShapes, 0.02f);
  for (const Codec codec : {Codec::kInt8, Codec::kBf16}) {
    EXPECT_EQ(encode_delta(delta, codec), encode_delta(delta, codec));
  }
}

TEST(QuantizeCodec, AllZeroDeltaCollapsesToTagBytes) {
  auto layout = StateLayout::of_shapes(kShapes);
  const auto n = layout->total();
  const ModelState delta{layout, std::vector<float>(static_cast<std::size_t>(n), 0.0f)};
  const auto wire = encode_delta(delta, Codec::kInt8);
  // Header (8+8+1+8) plus one tag byte per block, no payload.
  const auto blocks = static_cast<std::size_t>((n + kQuantBlock - 1) / kQuantBlock);
  EXPECT_EQ(wire.size(), 25 + blocks);
  const ModelState back = decode_delta(wire, delta.layout());
  for (std::int64_t i = 0; i < n; ++i) ASSERT_EQ(back.at(i), 0.0f);
}

TEST(QuantizeCodec, NonFiniteBlocksShipBitExactRaw) {
  ModelState delta = make_state(kShapes, 0.02f);
  const auto d = delta.data();
  d[3] = std::numeric_limits<float>::quiet_NaN();
  d[7] = -std::numeric_limits<float>::infinity();
  for (const Codec codec : {Codec::kInt8, Codec::kBf16}) {
    const ModelState back = decode_delta(encode_delta(delta, codec), delta.layout());
    // The whole first block rides raw: bit-exact, corruption included, so
    // server-side validation still sees it.
    for (std::int64_t i = 0; i < std::min<std::int64_t>(kQuantBlock, delta.numel()); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(back.at(i)),
                std::bit_cast<std::uint32_t>(delta.at(i)));
    }
  }
}

TEST(QuantizeCodec, Int8WireIsAtMostThirtyPercentOfFp32) {
  const ModelState delta = make_state(kShapes, 0.02f);
  const auto wire = encode_delta(delta, Codec::kInt8);
  const auto fp32_bytes = static_cast<std::size_t>(nn::state_bytes(delta));
  EXPECT_LE(wire.size(), (fp32_bytes * 30) / 100)
      << "int8 transport must cut bytes to <=30% of raw fp32";
}

TEST(QuantizeCodec, RejectsEmptyStateAndNoneCodec) {
  EXPECT_THROW(encode_delta(ModelState{}, Codec::kInt8), std::invalid_argument);
  const ModelState delta = make_state(kShapes, 0.02f);
  EXPECT_THROW(encode_delta(delta, Codec::kNone), std::invalid_argument);
}

TEST(QuantizeCodec, DecodeRejectsLayoutMismatch) {
  const ModelState delta = make_state(kShapes, 0.02f);
  const auto wire = encode_delta(delta, Codec::kInt8);
  const auto other = StateLayout::of_shapes({{7, 7}, {7}});
  EXPECT_THROW(decode_delta(wire, other), nn::StateError);
  EXPECT_THROW(decode_delta(wire, nullptr), nn::StateError);
}

TEST(QuantizeCodec, DecodeRejectsMalformedFrames) {
  const ModelState delta = make_state(kShapes, 0.02f);
  auto wire = encode_delta(delta, Codec::kInt8);

  auto truncated = wire;
  truncated.resize(truncated.size() - 3);
  EXPECT_THROW(decode_delta(truncated, delta.layout()), nn::StateError);

  auto extended = wire;
  extended.push_back(0);
  EXPECT_THROW(decode_delta(extended, delta.layout()), nn::StateError);

  auto bad_magic = wire;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(decode_delta(bad_magic, delta.layout()), nn::StateError);

  auto bad_tag = wire;
  bad_tag[25] = 0xEE;  // first block tag
  EXPECT_THROW(decode_delta(bad_tag, delta.layout()), nn::StateError);

  EXPECT_THROW(decode_delta(std::vector<std::uint8_t>{}, delta.layout()), nn::StateError);
}

// ---------------------------------------------------------------------------
// End-to-end: quantized transport through the federated engine.
// ---------------------------------------------------------------------------

data::SyntheticSpec tiny_spec() {
  data::SyntheticSpec spec;
  spec.num_classes = 3;
  spec.channels = 1;
  spec.image_size = 8;
  spec.train_per_class = 12;
  spec.test_per_class = 6;
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

struct Federation {
  data::TrainTest tt = data::make_synthetic(tiny_spec());
  std::vector<data::Dataset> clients;
  std::unique_ptr<nn::Module> scratch;
  nn::ModelState init;

  Federation() {
    Rng prng(1);
    clients = data::materialize(tt.train, data::iid_partition(tt.train, 3, prng));
    Rng model_rng(11);
    scratch = nn::make_convnet(tiny_net(), model_rng);
    init = nn::state_of(*scratch);  // scratch is overwritten by every run
  }

  nn::ModelState run(const ResilientConfig& cfg, CostMeter& cost, std::uint64_t seed) {
    SgdLocalUpdate update(2, 8, 0.1f);
    Rng rng(seed);
    return run_resilient(*scratch, init, clients, update, cfg, rng, cost);
  }
};

TEST(QuantizedTransport, RunsAreBitwiseDeterministic) {
  Federation f;
  ResilientConfig cfg{.rounds = 3, .participation = 1.0f};
  cfg.transport.codec = Codec::kInt8;
  CostMeter c1, c2;
  const auto s1 = f.run(cfg, c1, 5);
  const auto s2 = f.run(cfg, c2, 5);
  ASSERT_EQ(s1.numel(), s2.numel());
  for (std::int64_t i = 0; i < s1.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(s1.at(i)), std::bit_cast<std::uint32_t>(s2.at(i)))
        << "quantized federated run diverges at " << i;
  }
  EXPECT_EQ(c1.bytes_up, c2.bytes_up);
}

TEST(QuantizedTransport, CutsUploadBytes) {
  Federation f;
  ResilientConfig cfg{.rounds = 2, .participation = 1.0f};
  CostMeter raw_cost;
  f.run(cfg, raw_cost, 5);
  cfg.transport.codec = Codec::kInt8;
  CostMeter q_cost;
  f.run(cfg, q_cost, 5);
  EXPECT_GT(raw_cost.bytes_up, 0);
  EXPECT_LE(q_cost.bytes_up, (raw_cost.bytes_up * 30) / 100)
      << "quantized upload bytes must be <=30% of fp32 transport";
  // Downloads (global state broadcast) are unchanged.
  EXPECT_EQ(raw_cost.bytes_down, q_cost.bytes_down);
}

TEST(QuantizedTransport, CorruptedUploadsStillQuarantined) {
  Federation f;
  ResilientConfig cfg{.rounds = 4, .participation = 1.0f};
  cfg.transport.codec = Codec::kInt8;
  FaultRates rates;
  rates.corrupt_nan = 0.5f;
  cfg.faults = FaultPlan(77, rates);
  cfg.defense.validate_finite = true;
  CostMeter cost;
  const auto state = f.run(cfg, cost, 5);
  // Raw blocks carried the NaNs across the wire bit-exactly, so validation
  // quarantined them; the aggregate stays finite.
  EXPECT_GT(cost.quarantined_updates, 0);
  EXPECT_TRUE(nn::all_finite(state));
}

}  // namespace
}  // namespace quickdrop::fl
