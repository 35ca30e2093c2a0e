#include "util/crc64.h"

#include <array>
#include <cstddef>

namespace quickdrop {
namespace {

// Reflected ECMA-182 polynomial (CRC-64/XZ): init and xorout are all-ones.
constexpr std::uint64_t kPoly = 0xC96C5795D7870F42ULL;

using Tables = std::array<std::array<std::uint64_t, 256>, 8>;

// Slice-by-8: tables[0] is the bytewise table; tables[k][b] is the CRC of
// byte b followed by k zero bytes, so eight table reads fold eight input
// bytes into the register at once.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint64_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) != 0 ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

}  // namespace

std::uint64_t crc64(std::span<const std::uint8_t> bytes, std::uint64_t seed) {
  std::uint64_t crc = ~seed;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; n -= 8, p += 8) {
    // The next eight bytes as a little-endian word (one load on x86).
    const std::uint64_t word =
        std::uint64_t{p[0]} | std::uint64_t{p[1]} << 8 | std::uint64_t{p[2]} << 16 |
        std::uint64_t{p[3]} << 24 | std::uint64_t{p[4]} << 32 | std::uint64_t{p[5]} << 40 |
        std::uint64_t{p[6]} << 48 | std::uint64_t{p[7]} << 56;
    crc ^= word;
    crc = kTables[7][crc & 0xFF] ^ kTables[6][(crc >> 8) & 0xFF] ^
          kTables[5][(crc >> 16) & 0xFF] ^ kTables[4][(crc >> 24) & 0xFF] ^
          kTables[3][(crc >> 32) & 0xFF] ^ kTables[2][(crc >> 40) & 0xFF] ^
          kTables[1][(crc >> 48) & 0xFF] ^ kTables[0][crc >> 56];
  }
  for (; n > 0; --n, ++p) crc = kTables[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  return ~crc;
}

}  // namespace quickdrop
