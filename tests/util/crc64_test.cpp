// CRC-64/XZ: the catalogue check value, chunked continuation, and equality
// of the slice-by-8 implementation with a plain bytewise reference over
// random lengths, offsets and seeds.
#include "util/crc64.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace quickdrop {
namespace {

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// One bit at a time, straight from the reflected polynomial.
std::uint64_t crc64_bitwise(std::span<const std::uint8_t> bytes, std::uint64_t seed) {
  std::uint64_t crc = ~seed;
  for (const std::uint8_t b : bytes) {
    crc ^= b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) != 0 ? (crc >> 1) ^ 0xC96C5795D7870F42ULL : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc64, CheckValue) {
  EXPECT_EQ(crc64(bytes_of("123456789")), 0x995DC9BBDF1939FAULL);
  EXPECT_EQ(crc64(bytes_of("")), 0u);
  EXPECT_EQ(crc64(bytes_of(""), 0x1234u), 0x1234u);
}

TEST(Crc64, ChunksContinueFromTheSeed) {
  const std::string_view s = "The quick brown fox jumps over the lazy dog, twice over.";
  const std::uint64_t whole = crc64(bytes_of(s));
  for (std::size_t cut = 0; cut <= s.size(); ++cut) {
    EXPECT_EQ(crc64(bytes_of(s.substr(cut)), crc64(bytes_of(s.substr(0, cut)))), whole) << cut;
  }
}

TEST(Crc64, MatchesTheBitwiseReference) {
  Rng rng(7);
  std::vector<std::uint8_t> buf(4096 + 16);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_u64(256));
  for (int trial = 0; trial < 300; ++trial) {
    // Short lengths around the 8-byte step, and long ones; every offset, so
    // the words start unaligned.
    const std::size_t len = trial < 40 ? static_cast<std::size_t>(trial)
                                       : static_cast<std::size_t>(rng.uniform_u64(4097));
    const std::size_t off = static_cast<std::size_t>(rng.uniform_u64(16));
    const std::uint64_t seed = trial % 3 == 0 ? 0 : rng.next_u64();
    const std::span<const std::uint8_t> span(buf.data() + off, len);
    ASSERT_EQ(crc64(span, seed), crc64_bitwise(span, seed)) << "len " << len << " off " << off;
  }
}

}  // namespace
}  // namespace quickdrop
