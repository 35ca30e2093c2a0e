#include "net/wire.h"

#include <cstring>

#include "util/crc64.h"

namespace quickdrop::net {

namespace {

// Little-endian scalar writers/readers, mirroring the v2 state framing.
template <typename T>
void put(std::vector<std::uint8_t>& out, T value) {
  std::uint8_t bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

/// Bounds-checked reader over a payload span.
struct Reader {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;

  template <typename T>
  T get(const char* what) {
    if (bytes.size() - pos < sizeof(T)) {
      throw NetError(NetErrorCode::kTruncated,
                     std::string("payload ends inside ") + what);
    }
    T value;
    std::memcpy(&value, bytes.data() + pos, sizeof(T));
    pos += sizeof(T);
    return value;
  }

  std::string get_string(std::size_t len, const char* what) {
    if (bytes.size() - pos < len) {
      throw NetError(NetErrorCode::kTruncated,
                     std::string("payload ends inside ") + what);
    }
    std::string s(reinterpret_cast<const char*>(bytes.data() + pos), len);
    pos += len;
    return s;
  }

  void expect_done() const {
    if (pos != bytes.size()) {
      throw NetError(NetErrorCode::kTrailingBytes,
                     std::to_string(bytes.size() - pos) + " byte(s) after payload");
    }
  }
};

// Caps on variable-length payload fields: large enough for any legitimate
// message, small enough that a corrupted count cannot drive a huge
// allocation before the CRC would have caught it.
constexpr std::uint32_t kMaxRows = 1u << 20;
constexpr std::uint32_t kMaxTenantBytes = 256;
constexpr std::uint32_t kMaxMessageBytes = 4096;

bool known_type(std::uint8_t type) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kUnlearnRequest:
    case FrameType::kEndOfTrace:
    case FrameType::kClientUpdate:
    case FrameType::kAck:
    case FrameType::kReport:
      return true;
  }
  return false;
}

std::uint8_t reason_byte(serve::RejectReason reason) {
  return static_cast<std::uint8_t>(reason);
}

serve::RejectReason reason_from_byte(std::uint8_t byte) {
  if (byte > static_cast<std::uint8_t>(serve::RejectReason::kUnsupportedKind)) {
    throw NetError(NetErrorCode::kBadPayload,
                   "unknown reject reason " + std::to_string(byte));
  }
  return static_cast<serve::RejectReason>(byte);
}

}  // namespace

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  if (frame.payload.size() > kMaxFramePayload) {
    throw NetError(NetErrorCode::kOversized,
                   "payload of " + std::to_string(frame.payload.size()) + " bytes exceeds cap");
  }
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + frame.payload.size() + kFrameTrailerBytes);
  put<std::uint32_t>(out, kFrameMagic);
  put<std::uint16_t>(out, kFrameVersion);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(frame.type));
  put<std::uint8_t>(out, 0);  // reserved
  put<std::uint64_t>(out, frame.layout_hash);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(frame.payload.size()));
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  put<std::uint64_t>(out, crc64({out.data(), out.size()}));
  return out;
}

Frame decode_frame(std::span<const std::uint8_t> bytes, std::uint64_t expected_layout_hash) {
  if (bytes.size() < kFrameHeaderBytes) {
    throw NetError(NetErrorCode::kTruncated,
                   "frame of " + std::to_string(bytes.size()) + " bytes is shorter than a header");
  }
  Reader header{bytes.first(kFrameHeaderBytes)};
  const auto magic = header.get<std::uint32_t>("magic");
  if (magic != kFrameMagic) {
    throw NetError(NetErrorCode::kBadMagic, "got 0x" + std::to_string(magic));
  }
  const auto version = header.get<std::uint16_t>("version");
  if (version != kFrameVersion) {
    throw NetError(NetErrorCode::kBadVersion, "got v" + std::to_string(version));
  }
  const auto type = header.get<std::uint8_t>("type");
  if (!known_type(type)) {
    throw NetError(NetErrorCode::kUnknownType, "frame type " + std::to_string(type));
  }
  const auto reserved = header.get<std::uint8_t>("reserved");
  if (reserved != 0) {
    throw NetError(NetErrorCode::kBadPayload,
                   "reserved byte is " + std::to_string(reserved) + ", want 0");
  }
  const auto layout_hash = header.get<std::uint64_t>("layout hash");
  const auto payload_len = header.get<std::uint32_t>("payload length");
  if (payload_len > kMaxFramePayload) {
    throw NetError(NetErrorCode::kOversized,
                   "declared payload of " + std::to_string(payload_len) + " bytes exceeds cap");
  }
  const std::size_t want = kFrameHeaderBytes + payload_len + kFrameTrailerBytes;
  if (bytes.size() < want) {
    throw NetError(NetErrorCode::kTruncated,
                   "frame declares " + std::to_string(want) + " bytes, got " +
                       std::to_string(bytes.size()));
  }
  if (bytes.size() > want) {
    throw NetError(NetErrorCode::kTrailingBytes,
                   std::to_string(bytes.size() - want) + " byte(s) after frame");
  }
  std::uint64_t stored_crc;
  std::memcpy(&stored_crc, bytes.data() + want - kFrameTrailerBytes, sizeof(stored_crc));
  const std::uint64_t computed = crc64(bytes.first(want - kFrameTrailerBytes));
  if (stored_crc != computed) {
    throw NetError(NetErrorCode::kCrcMismatch, "frame checksum does not verify");
  }
  // The CRC verified, so the hash field is authentic — a mismatch now means
  // a well-formed frame for the wrong deployment, not corruption.
  if (expected_layout_hash != 0 && layout_hash != expected_layout_hash) {
    throw NetError(NetErrorCode::kLayoutMismatch,
                   "frame targets layout " + std::to_string(layout_hash) + ", this deployment is " +
                       std::to_string(expected_layout_hash));
  }
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.layout_hash = layout_hash;
  frame.payload.assign(bytes.begin() + static_cast<std::ptrdiff_t>(kFrameHeaderBytes),
                       bytes.begin() + static_cast<std::ptrdiff_t>(want - kFrameTrailerBytes));
  return frame;
}

void write_frame(Io& io, const Frame& frame) {
  const auto bytes = encode_frame(frame);
  io.write_all({bytes.data(), bytes.size()});
}

std::optional<Frame> read_frame(Io& io, std::uint64_t expected_layout_hash) {
  std::vector<std::uint8_t> buf(kFrameHeaderBytes);
  if (!read_exact(io, {buf.data(), buf.size()})) return std::nullopt;
  // Pre-validate the length field from the raw header so a corrupt length
  // cannot drive a huge read; full validation happens in decode_frame on the
  // reassembled buffer (single validation path for stream and buffer input).
  std::uint32_t payload_len;
  std::memcpy(&payload_len, buf.data() + 16, sizeof(payload_len));
  if (payload_len > kMaxFramePayload) {
    throw NetError(NetErrorCode::kOversized,
                   "declared payload of " + std::to_string(payload_len) + " bytes exceeds cap");
  }
  const std::size_t rest = payload_len + kFrameTrailerBytes;
  buf.resize(kFrameHeaderBytes + rest);
  if (!read_exact(io, {buf.data() + kFrameHeaderBytes, rest})) {
    throw NetError(NetErrorCode::kTruncated, "stream ended after frame header");
  }
  return decode_frame({buf.data(), buf.size()}, expected_layout_hash);
}

// ---------------------------------------------------------------------------
// Payload codecs
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_request_payload(const WireRequest& wire) {
  if (wire.tenant.size() > kMaxTenantBytes) {
    throw NetError(NetErrorCode::kOversized, "tenant name exceeds " +
                                                 std::to_string(kMaxTenantBytes) + " bytes");
  }
  if (wire.request.rows.size() > kMaxRows) {
    throw NetError(NetErrorCode::kOversized, "row list exceeds cap");
  }
  std::vector<std::uint8_t> out;
  put<std::uint8_t>(out, static_cast<std::uint8_t>(wire.request.kind));
  put<std::int32_t>(out, wire.request.target);
  put<double>(out, wire.request.arrival_seconds);
  put<std::int32_t>(out, wire.request.priority);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(wire.request.rows.size()));
  for (const int row : wire.request.rows) put<std::int32_t>(out, row);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(wire.tenant.size()));
  out.insert(out.end(), wire.tenant.begin(), wire.tenant.end());
  return out;
}

WireRequest decode_request_payload(std::span<const std::uint8_t> bytes) {
  Reader r{bytes};
  WireRequest wire;
  const auto kind = r.get<std::uint8_t>("request kind");
  if (kind > static_cast<std::uint8_t>(serve::RequestKind::kSample)) {
    throw NetError(NetErrorCode::kBadPayload, "unknown request kind " + std::to_string(kind));
  }
  wire.request.kind = static_cast<serve::RequestKind>(kind);
  wire.request.target = r.get<std::int32_t>("target");
  wire.request.arrival_seconds = r.get<double>("arrival");
  if (!(wire.request.arrival_seconds >= 0.0)) {  // also rejects NaN
    throw NetError(NetErrorCode::kBadPayload, "negative or non-finite arrival time");
  }
  wire.request.priority = r.get<std::int32_t>("priority");
  const auto num_rows = r.get<std::uint32_t>("row count");
  if (num_rows > kMaxRows) {
    throw NetError(NetErrorCode::kOversized, "row count " + std::to_string(num_rows));
  }
  wire.request.rows.reserve(num_rows);
  for (std::uint32_t i = 0; i < num_rows; ++i) {
    wire.request.rows.push_back(r.get<std::int32_t>("row"));
  }
  const auto tenant_len = r.get<std::uint32_t>("tenant length");
  if (tenant_len > kMaxTenantBytes) {
    throw NetError(NetErrorCode::kOversized, "tenant length " + std::to_string(tenant_len));
  }
  wire.tenant = r.get_string(tenant_len, "tenant name");
  r.expect_done();
  return wire;
}

std::vector<std::uint8_t> encode_ack_payload(const WireAck& ack) {
  if (ack.message.size() > kMaxMessageBytes) {
    throw NetError(NetErrorCode::kOversized, "ack message exceeds cap");
  }
  std::vector<std::uint8_t> out;
  put<std::uint8_t>(out, ack.accepted ? 1 : 0);
  put<std::int64_t>(out, ack.id);
  put<std::uint8_t>(out, reason_byte(ack.reason));
  put<std::uint32_t>(out, static_cast<std::uint32_t>(ack.message.size()));
  out.insert(out.end(), ack.message.begin(), ack.message.end());
  return out;
}

WireAck decode_ack_payload(std::span<const std::uint8_t> bytes) {
  Reader r{bytes};
  WireAck ack;
  const auto accepted = r.get<std::uint8_t>("accepted flag");
  if (accepted > 1) {
    throw NetError(NetErrorCode::kBadPayload, "accepted flag " + std::to_string(accepted));
  }
  ack.accepted = accepted == 1;
  ack.id = r.get<std::int64_t>("id");
  ack.reason = reason_from_byte(r.get<std::uint8_t>("reject reason"));
  const auto msg_len = r.get<std::uint32_t>("message length");
  if (msg_len > kMaxMessageBytes) {
    throw NetError(NetErrorCode::kOversized, "message length " + std::to_string(msg_len));
  }
  ack.message = r.get_string(msg_len, "message");
  r.expect_done();
  return ack;
}

std::vector<std::uint8_t> encode_update_payload(const nn::ModelState& state, fl::Codec codec) {
  std::vector<std::uint8_t> out;
  put<std::uint8_t>(out, static_cast<std::uint8_t>(codec));
  const auto body =
      codec == fl::Codec::kNone ? nn::serialize_state(state) : fl::encode_delta(state, codec);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

nn::ModelState decode_update_payload(std::span<const std::uint8_t> bytes,
                                     const std::shared_ptr<const nn::StateLayout>& layout) {
  if (bytes.empty()) {
    throw NetError(NetErrorCode::kTruncated, "empty client-update payload");
  }
  const auto codec = bytes[0];
  const auto body = bytes.subspan(1);
  try {
    if (codec == static_cast<std::uint8_t>(fl::Codec::kNone)) {
      auto state = nn::deserialize_state(body);
      // A well-formed empty state carries no layout at all.
      if (!layout || !state.layout() || state.layout()->hash() != layout->hash()) {
        throw NetError(NetErrorCode::kLayoutMismatch, "update state layout mismatch");
      }
      return state;
    }
    if (codec == static_cast<std::uint8_t>(fl::Codec::kInt8) ||
        codec == static_cast<std::uint8_t>(fl::Codec::kBf16)) {
      return fl::decode_delta(body, layout);
    }
  } catch (const nn::StateError& e) {
    // The inner encodings carry their own validation; surface their failures
    // as typed wire errors so callers see one error taxonomy.
    throw NetError(NetErrorCode::kBadPayload, e.what());
  }
  throw NetError(NetErrorCode::kBadPayload, "unknown update codec " + std::to_string(codec));
}

Frame make_request_frame(const WireRequest& wire, std::uint64_t layout_hash) {
  return {FrameType::kUnlearnRequest, layout_hash, encode_request_payload(wire)};
}

Frame make_end_frame(std::uint64_t layout_hash) {
  return {FrameType::kEndOfTrace, layout_hash, {}};
}

Frame make_ack_frame(const WireAck& ack, std::uint64_t layout_hash) {
  return {FrameType::kAck, layout_hash, encode_ack_payload(ack)};
}

Frame make_report_frame(const std::string& json, std::uint64_t layout_hash) {
  return {FrameType::kReport, layout_hash,
          std::vector<std::uint8_t>(json.begin(), json.end())};
}

Frame make_update_frame(const nn::ModelState& state, fl::Codec codec,
                        std::uint64_t layout_hash) {
  return {FrameType::kClientUpdate, layout_hash, encode_update_payload(state, codec)};
}

}  // namespace quickdrop::net
