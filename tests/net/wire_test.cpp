// Wire-protocol codec contracts: frame round trips over buffers and Io
// streams, payload codecs (request/ack/update, raw and quantized), and the
// fuzz-style negative suite — every header byte corrupted, truncation at
// every boundary, oversized lengths, layout-hash mismatch, trailing bytes —
// mirroring the mutated-stream tests in tests/nn/flat_state_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "net/io.h"
#include "net/wire.h"
#include "nn/state.h"

namespace quickdrop::net {
namespace {

using nn::ModelState;
using nn::StateLayout;

constexpr std::uint64_t kHash = 0x1122334455667788ULL;

ModelState make_state() {
  auto layout = StateLayout::of_shapes({{3, 2}, {3}, {4, 3}, {4}});
  std::vector<float> values(static_cast<std::size_t>(layout->total()));
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 0.01f * static_cast<float>((i * 2654435761ULL) % 509) - 2.5f;
  }
  return {std::move(layout), std::move(values)};
}

serve::ServiceRequest sample_request() {
  serve::ServiceRequest request;
  request.kind = serve::RequestKind::kSample;
  request.target = 3;
  request.rows = {1, 4, 9};
  request.arrival_seconds = 12.625;  // exactly representable
  request.priority = 2;
  return request;
}

/// Decodes and reports the typed code, or kNone sentinel via has_value.
NetErrorCode decode_error(const std::vector<std::uint8_t>& bytes,
                          std::uint64_t expected_hash = kHash) {
  try {
    decode_frame(bytes, expected_hash);
  } catch (const NetError& e) {
    return e.code;
  }
  ADD_FAILURE() << "decode_frame accepted a corrupted buffer of " << bytes.size() << " bytes";
  return NetErrorCode::kIoFailure;
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST(WireFrame, RoundTripsEveryFrameType) {
  const ModelState state = make_state();
  const std::vector<Frame> frames = {
      make_request_frame({sample_request(), "acme"}, kHash),
      make_end_frame(kHash),
      make_update_frame(state, fl::Codec::kNone, kHash),
      make_ack_frame({.accepted = true, .id = 7, .reason = {}, .message = ""}, kHash),
      make_report_frame("{\"cycles\": 3}", kHash),
  };
  for (const auto& frame : frames) {
    const auto bytes = encode_frame(frame);
    ASSERT_EQ(bytes.size(), kFrameHeaderBytes + frame.payload.size() + kFrameTrailerBytes);
    const Frame back = decode_frame(bytes, kHash);
    EXPECT_EQ(back.type, frame.type);
    EXPECT_EQ(back.layout_hash, kHash);
    EXPECT_EQ(back.payload, frame.payload);
    // A zero expected hash disables the gate.
    EXPECT_NO_THROW(decode_frame(bytes, 0));
  }
}

TEST(WireFrame, RequestPayloadRoundTripsExactly) {
  const WireRequest wire{sample_request(), "tenant-a"};
  const auto back = decode_request_payload(encode_request_payload(wire));
  EXPECT_EQ(back.tenant, "tenant-a");
  EXPECT_EQ(back.request.kind, wire.request.kind);
  EXPECT_EQ(back.request.target, wire.request.target);
  EXPECT_EQ(back.request.rows, wire.request.rows);
  EXPECT_EQ(back.request.arrival_seconds, wire.request.arrival_seconds);
  EXPECT_EQ(back.request.priority, wire.request.priority);
}

TEST(WireFrame, AckPayloadRoundTripsBothOutcomes) {
  const WireAck ok{.accepted = true, .id = 42, .reason = {}, .message = ""};
  const auto ok_back = decode_ack_payload(encode_ack_payload(ok));
  EXPECT_TRUE(ok_back.accepted);
  EXPECT_EQ(ok_back.id, 42);

  const WireAck rejected{.accepted = false,
                         .id = -1,
                         .reason = serve::RejectReason::kDuplicatePending,
                         .message = "already queued"};
  const auto rej_back = decode_ack_payload(encode_ack_payload(rejected));
  EXPECT_FALSE(rej_back.accepted);
  EXPECT_EQ(rej_back.reason, serve::RejectReason::kDuplicatePending);
  EXPECT_EQ(rej_back.message, "already queued");
}

TEST(WireFrame, UpdatePayloadRawIsBitwiseAndQuantizedMatchesFlCodec) {
  const ModelState state = make_state();
  const auto raw = decode_update_payload(encode_update_payload(state, fl::Codec::kNone),
                                         state.layout());
  ASSERT_EQ(raw.numel(), state.numel());
  for (std::int64_t i = 0; i < state.numel(); ++i) {
    ASSERT_EQ(raw.at(i), state.at(i)) << "flat index " << i;
  }
  // The quantized path must land exactly where fl::decode_delta would: the
  // wire adds framing, never arithmetic.
  for (const auto codec : {fl::Codec::kInt8, fl::Codec::kBf16}) {
    const auto via_wire =
        decode_update_payload(encode_update_payload(state, codec), state.layout());
    const auto via_fl = fl::decode_delta(fl::encode_delta(state, codec), state.layout());
    ASSERT_EQ(via_wire.numel(), via_fl.numel());
    for (std::int64_t i = 0; i < state.numel(); ++i) {
      ASSERT_EQ(via_wire.at(i), via_fl.at(i)) << "codec " << static_cast<int>(codec) << " @" << i;
    }
  }
}

TEST(WireFrame, StreamRoundTripOverLoopback) {
  auto pair = make_loopback();
  write_frame(*pair.client, make_request_frame({sample_request(), "t"}, kHash));
  write_frame(*pair.client, make_end_frame(kHash));
  pair.client->finish_write();

  const auto first = read_frame(*pair.server, kHash);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, FrameType::kUnlearnRequest);
  const auto second = read_frame(*pair.server, kHash);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->type, FrameType::kEndOfTrace);
  // Clean end-of-stream at the frame boundary.
  EXPECT_FALSE(read_frame(*pair.server, kHash).has_value());
}

// ---------------------------------------------------------------------------
// Fuzz-style negatives: header corruption
// ---------------------------------------------------------------------------

TEST(WireFuzz, EveryCorruptedHeaderByteIsRejected) {
  const auto good = encode_frame(make_request_frame({sample_request(), "t"}, kHash));
  for (std::size_t i = 0; i < kFrameHeaderBytes; ++i) {
    for (const std::uint8_t flip : {std::uint8_t{0x01}, std::uint8_t{0x80}, std::uint8_t{0xFF}}) {
      auto bytes = good;
      bytes[i] ^= flip;
      try {
        decode_frame(bytes, kHash);
        ADD_FAILURE() << "accepted header byte " << i << " ^ " << int(flip);
      } catch (const NetError&) {
        // Any typed code is acceptable; which one depends on the byte: magic
        // bytes -> kBadMagic, version -> kBadVersion, type -> kUnknownType or
        // kCrcMismatch, hash -> kLayoutMismatch, length -> size errors.
      }
    }
  }
}

TEST(WireFuzz, CorruptionErrorsAreTyped) {
  const auto good = encode_frame(make_end_frame(kHash));
  auto bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(decode_error(bad_magic), NetErrorCode::kBadMagic);

  auto bad_version = good;
  bad_version[4] ^= 0xFF;
  EXPECT_EQ(decode_error(bad_version), NetErrorCode::kBadVersion);

  auto bad_type = good;
  bad_type[6] = 0x7F;  // outside the FrameType set
  EXPECT_EQ(decode_error(bad_type), NetErrorCode::kUnknownType);

  // A flipped hash *byte* is corruption and fails the CRC; a layout mismatch
  // proper is a well-formed frame built against a different deployment.
  auto bad_hash = good;
  bad_hash[8] ^= 0x01;
  EXPECT_EQ(decode_error(bad_hash), NetErrorCode::kCrcMismatch);
  const auto foreign = encode_frame(make_end_frame(kHash ^ 1));
  EXPECT_EQ(decode_error(foreign), NetErrorCode::kLayoutMismatch);
  EXPECT_NO_THROW(decode_frame(foreign, 0));
}

TEST(WireFuzz, CorruptedPayloadAndTrailerFailCrc) {
  const auto good = encode_frame(make_report_frame("{\"ok\": true}", kHash));
  for (std::size_t i = kFrameHeaderBytes; i < good.size(); ++i) {
    auto bytes = good;
    bytes[i] ^= 0x20;
    EXPECT_EQ(decode_error(bytes), NetErrorCode::kCrcMismatch) << "byte " << i;
  }
}

// ---------------------------------------------------------------------------
// Fuzz-style negatives: truncation, lengths, trailing bytes
// ---------------------------------------------------------------------------

TEST(WireFuzz, TruncationAtEveryBoundaryIsRejected) {
  const auto good = encode_frame(make_request_frame({sample_request(), "tenant"}, kHash));
  for (std::size_t len = 0; len < good.size(); ++len) {
    const std::vector<std::uint8_t> cut(good.begin(), good.begin() + static_cast<long>(len));
    EXPECT_EQ(decode_error(cut), NetErrorCode::kTruncated) << "prefix " << len;
  }
}

TEST(WireFuzz, TrailingBytesAreRejected) {
  auto bytes = encode_frame(make_end_frame(kHash));
  bytes.push_back(0x00);
  EXPECT_EQ(decode_error(bytes), NetErrorCode::kTrailingBytes);
}

TEST(WireFuzz, OversizedDeclaredLengthIsRejectedBeforeAllocation) {
  auto bytes = encode_frame(make_end_frame(kHash));
  const std::uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(bytes.data() + 16, &huge, sizeof(huge));
  EXPECT_EQ(decode_error(bytes), NetErrorCode::kOversized);
}

TEST(WireFuzz, StreamTornMidFrameThrowsTruncated) {
  const auto good = encode_frame(make_request_frame({sample_request(), "t"}, kHash));
  for (const std::size_t cut : {std::size_t{1}, kFrameHeaderBytes - 1, kFrameHeaderBytes,
                                good.size() - 1}) {
    auto pair = make_loopback();
    pair.client->write_all(std::span(good.data(), cut));
    pair.client->finish_write();
    try {
      read_frame(*pair.server, kHash);
      ADD_FAILURE() << "read_frame accepted a stream torn at byte " << cut;
    } catch (const NetError& e) {
      EXPECT_EQ(e.code, NetErrorCode::kTruncated) << "cut " << cut;
    }
  }
}

TEST(WireFuzz, RequestPayloadNegativesAreTyped) {
  const auto good = encode_request_payload({sample_request(), "tenant"});
  // Truncation at every boundary inside the payload codec.
  for (std::size_t len = 0; len < good.size(); ++len) {
    const std::vector<std::uint8_t> cut(good.begin(), good.begin() + static_cast<long>(len));
    EXPECT_THROW(decode_request_payload(cut), NetError) << "prefix " << len;
  }
  // Trailing garbage after a complete request.
  auto padded = good;
  padded.push_back(0x01);
  EXPECT_THROW(decode_request_payload(padded), NetError);
}

TEST(WireFuzz, UpdatePayloadRejectsUnknownCodecAndInnerCorruption) {
  const ModelState state = make_state();
  auto payload = encode_update_payload(state, fl::Codec::kNone);
  auto unknown = payload;
  unknown[0] = 0x66;
  EXPECT_THROW(decode_update_payload(unknown, state.layout()), NetError);

  // Inner v2-state corruption surfaces as a typed wire error, not StateError.
  auto corrupt = payload;
  corrupt[corrupt.size() / 2] ^= 0xFF;
  try {
    decode_update_payload(corrupt, state.layout());
    ADD_FAILURE() << "accepted corrupted inner state";
  } catch (const NetError& e) {
    EXPECT_EQ(e.code, NetErrorCode::kBadPayload);
  }

  // Wrong receiver layout: the gate fires even though the bytes are intact.
  const auto other = StateLayout::of_shapes({{5, 5}});
  EXPECT_THROW(decode_update_payload(payload, other), NetError);

  // A well-formed *empty* state has no layout to compare: refused as a
  // layout mismatch, never dereferenced.
  std::vector<std::uint8_t> empty{static_cast<std::uint8_t>(fl::Codec::kNone)};
  const auto empty_body = nn::serialize_state(ModelState{});
  empty.insert(empty.end(), empty_body.begin(), empty_body.end());
  ASSERT_EQ(empty.size(), 33u);
  try {
    decode_update_payload(empty, state.layout());
    ADD_FAILURE() << "accepted an empty state";
  } catch (const NetError& e) {
    EXPECT_EQ(e.code, NetErrorCode::kLayoutMismatch);
  }

  // A headerless body of eight zero bytes (an empty state in the retired v1
  // stream format) carries no v2 magic and is refused.
  const std::vector<std::uint8_t> headerless(9, 0);
  EXPECT_THROW(decode_update_payload(headerless, state.layout()), NetError);
}

}  // namespace
}  // namespace quickdrop::net
