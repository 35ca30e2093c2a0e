// SIMD-vs-scalar bitwise parity for the dispatched microkernels (DESIGN.md
// §13): the scalar table is the oracle; the AVX2 table must reproduce every
// result bit-for-bit, including reduction lane structure, tail handling and
// the IEEE edge cases (NaN, signed zeros, denormals) of the binary and relu
// runs.
// Also covers the dispatch plumbing itself and the matmul path end-to-end.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/kernels.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace {

using quickdrop::Tensor;
using quickdrop::simd::Dispatch;
using quickdrop::simd::Kernels;

/// Deterministic pseudo-values with varied magnitudes and signs.
float synth_value(std::int64_t i, float phase) {
  const float base = 0.001f * static_cast<float>((i * 2654435761LL) % 2003) - 1.0f;
  const float magnitude = static_cast<float>(1 + (i % 5)) * 0.37f;
  return base * magnitude + phase;
}

std::vector<float> synth_buffer(std::int64_t n, float phase) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = synth_value(i, phase);
  return v;
}

void expect_bitwise_equal(const std::vector<float>& a, const std::vector<float>& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]), std::bit_cast<std::uint32_t>(b[i]))
        << what << " diverges at index " << i;
  }
}

void expect_bitwise_equal(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b)) << what;
}

bool avx2_usable() {
  return quickdrop::simd::avx2_compiled() && quickdrop::simd::avx2_supported();
}

/// Restores auto dispatch when a test returns.
struct DispatchScope {
  explicit DispatchScope(Dispatch d) { quickdrop::simd::force_dispatch(d); }
  ~DispatchScope() { quickdrop::simd::force_dispatch(Dispatch::kAuto); }
};

/// Restores the ambient thread count when a test returns.
struct PoolScope {
  explicit PoolScope(int threads) : saved(quickdrop::num_threads()) {
    quickdrop::set_num_threads(threads);
  }
  ~PoolScope() { quickdrop::set_num_threads(saved); }
  int saved;
};

// Sizes exercising empty input, sub-lane tails, exact lane multiples and
// large buffers with a tail.
const std::int64_t kSizes[] = {0, 1, 3, 4, 7, 8, 9, 31, 64, 1000, 1003, 4096, 5001};

// ---------------------------------------------------------------------------
// Microkernel parity: scalar table vs AVX2 table, same inputs, same bits.
// ---------------------------------------------------------------------------

TEST(SimdParity, ElementwiseKernelsMatchBitwise) {
  if (!avx2_usable()) GTEST_SKIP() << "AVX2 not available";
  const Kernels& s = quickdrop::simd::scalar_kernels();
  const Kernels& v = quickdrop::simd::avx2_kernels();
  for (const std::int64_t n : kSizes) {
    const auto x = synth_buffer(n, 0.25f);
    const auto base = synth_buffer(n, -0.5f);

    auto ys = base, yv = base;
    s.axpy(ys.data(), x.data(), 0.3125f, n);
    v.axpy(yv.data(), x.data(), 0.3125f, n);
    expect_bitwise_equal(ys, yv, "axpy");

    ys = base;
    yv = base;
    s.scale(ys.data(), 0.731f, n);
    v.scale(yv.data(), 0.731f, n);
    expect_bitwise_equal(ys, yv, "scale");

    std::vector<float> os(static_cast<std::size_t>(n)), ov(static_cast<std::size_t>(n));
    s.binary[quickdrop::simd::kSub](os.data(), x.data(), base.data(), n);
    v.binary[quickdrop::simd::kSub](ov.data(), x.data(), base.data(), n);
    expect_bitwise_equal(os, ov, "subtract");
  }
}

/// synth_buffer with IEEE edge cases spliced in: signed zeros, infinities,
/// NaN, denormals and huge/tiny magnitudes, so division, relu and the mask
/// are checked where the SIMD and scalar semantics could differ.
std::vector<float> edgy_buffer(std::int64_t n, float phase) {
  auto v = synth_buffer(n, phase);
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::max(),
                            std::numeric_limits<float>::min()};
  for (std::size_t i = 0; i < v.size(); i += 3) v[i] = specials[(i / 3 + 7 * (i % 5)) % 9];
  return v;
}

TEST(SimdParity, BinaryRunsMatchBitwise) {
  if (!avx2_usable()) GTEST_SKIP() << "AVX2 not available";
  const Kernels& s = quickdrop::simd::scalar_kernels();
  const Kernels& v = quickdrop::simd::avx2_kernels();
  const char* names[] = {"add", "sub", "mul", "div"};
  for (const std::int64_t n : kSizes) {
    const auto a = edgy_buffer(n, 0.25f);
    const auto b = edgy_buffer(n + 1, -0.5f);  // offset edge cases against a's
    const auto un = static_cast<std::size_t>(n);
    for (int op = 0; op < quickdrop::simd::kNumBinaryOps; ++op) {
      std::vector<float> os(un), ov(un);
      s.binary[op](os.data(), a.data(), b.data() + 1, n);
      v.binary[op](ov.data(), a.data(), b.data() + 1, n);
      expect_bitwise_equal(os, ov, names[op]);
      // In place (o == a), as col2im and the reduction rows use it.
      auto is = a, iv = a;
      s.binary[op](is.data(), is.data(), b.data() + 1, n);
      v.binary[op](iv.data(), iv.data(), b.data() + 1, n);
      expect_bitwise_equal(is, iv, names[op]);
      for (const float scalar : {0.75f, -0.0f, 3.0e-39f, std::numeric_limits<float>::infinity()}) {
        s.binary_rs[op](os.data(), a.data(), scalar, n);
        v.binary_rs[op](ov.data(), a.data(), scalar, n);
        expect_bitwise_equal(os, ov, names[op]);
        s.binary_ls[op](os.data(), scalar, a.data(), n);
        v.binary_ls[op](ov.data(), scalar, a.data(), n);
        expect_bitwise_equal(os, ov, names[op]);
      }
    }
  }
}

TEST(SimdParity, ReluAndMaskMatchBitwise) {
  if (!avx2_usable()) GTEST_SKIP() << "AVX2 not available";
  const Kernels& s = quickdrop::simd::scalar_kernels();
  const Kernels& v = quickdrop::simd::avx2_kernels();
  for (const std::int64_t n : kSizes) {
    const auto a = edgy_buffer(n, 0.0f);
    std::vector<float> os(static_cast<std::size_t>(n)), ov(static_cast<std::size_t>(n));
    s.relu(os.data(), a.data(), n);
    v.relu(ov.data(), a.data(), n);
    expect_bitwise_equal(os, ov, "relu");
    s.relu_mask(os.data(), a.data(), n);
    v.relu_mask(ov.data(), a.data(), n);
    expect_bitwise_equal(os, ov, "relu_mask");
  }
  // The contract's edge cases, spelled out: NaN and -0 map to +0.
  const float in[] = {std::numeric_limits<float>::quiet_NaN(), -0.0f, 0.0f, -1.0f, 2.0f, 0.0f,
                      0.0f, 0.0f};
  for (const Kernels* k : {&s, &v}) {
    float out[8], mask[8];
    k->relu(out, in, 8);
    k->relu_mask(mask, in, 8);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(out[0]), 0u) << k->name;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(out[1]), 0u) << k->name;
    EXPECT_EQ(out[4], 2.0f) << k->name;
    EXPECT_EQ(mask[0], 0.0f) << k->name;
    EXPECT_EQ(mask[1], 0.0f) << k->name;
    EXPECT_EQ(mask[4], 1.0f) << k->name;
  }
}

TEST(SimdParity, NegFlipsOnlyTheSignBit) {
  // Bit patterns: ±0, ±inf, quiet and signaling NaNs with payloads, the
  // smallest and largest subnormals, and ordinary values of both signs.
  const std::uint32_t specials[] = {0x00000000u, 0x80000000u, 0x7f800000u, 0xff800000u,
                                    0x7fc00000u, 0xffc00001u, 0x7fa12345u, 0xff800001u,
                                    0x00000001u, 0x807fffffu, 0x3f800000u, 0xc0490fdbu};
  for (const std::int64_t n : kSizes) {
    std::vector<std::uint32_t> bits(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < bits.size(); ++i) {
      bits[i] = i % 2 == 0 ? specials[(i / 2) % std::size(specials)]
                           : std::bit_cast<std::uint32_t>(synth_value(static_cast<std::int64_t>(i),
                                                                      0.5f));
    }
    std::vector<float> a(bits.size()), want(bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
      a[i] = std::bit_cast<float>(bits[i]);
      want[i] = std::bit_cast<float>(bits[i] ^ 0x80000000u);
    }
    std::vector<const Kernels*> tables = {&quickdrop::simd::scalar_kernels()};
    if (avx2_usable()) tables.push_back(&quickdrop::simd::avx2_kernels());
    for (const Kernels* k : tables) {
      std::vector<float> out(bits.size());
      k->neg(out.data(), a.data(), n);
      expect_bitwise_equal(out, want, k->name);
      auto in_place = a;  // o == a
      k->neg(in_place.data(), in_place.data(), n);
      expect_bitwise_equal(in_place, want, k->name);
    }
  }
}

TEST(SimdParity, ReductionsMatchBitwise) {
  if (!avx2_usable()) GTEST_SKIP() << "AVX2 not available";
  const Kernels& s = quickdrop::simd::scalar_kernels();
  const Kernels& v = quickdrop::simd::avx2_kernels();
  for (const std::int64_t n : kSizes) {
    const auto x = synth_buffer(n, 0.125f);
    const auto y = synth_buffer(n, -0.375f);
    expect_bitwise_equal(s.sum_squares(x.data(), n), v.sum_squares(x.data(), n), "sum_squares");
    expect_bitwise_equal(s.sum_squared_diff(x.data(), y.data(), n),
                         v.sum_squared_diff(x.data(), y.data(), n), "sum_squared_diff");
  }
}

TEST(SimdParity, WeightedAverageFoldMatchesBitwise) {
  if (!avx2_usable()) GTEST_SKIP() << "AVX2 not available";
  const Kernels& s = quickdrop::simd::scalar_kernels();
  const Kernels& v = quickdrop::simd::avx2_kernels();
  for (const std::int64_t n : kSizes) {
    const auto x0 = synth_buffer(n, 0.0f);
    const auto x1 = synth_buffer(n, 0.625f);
    std::vector<double> as(static_cast<std::size_t>(n), 0.0);
    std::vector<double> av(static_cast<std::size_t>(n), 0.0);
    // Two folds in the same order, like two clients of weighted_average.
    s.wavg_fold(as.data(), x0.data(), 0.312, n);
    s.wavg_fold(as.data(), x1.data(), 0.00071, n);
    v.wavg_fold(av.data(), x0.data(), 0.312, n);
    v.wavg_fold(av.data(), x1.data(), 0.00071, n);
    for (std::int64_t i = 0; i < n; ++i) {
      const auto u = static_cast<std::size_t>(i);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(as[u]), std::bit_cast<std::uint64_t>(av[u]))
          << "wavg_fold diverges at " << i;
    }
    std::vector<float> outs(static_cast<std::size_t>(n)), outv(static_cast<std::size_t>(n));
    s.wavg_store(outs.data(), as.data(), n);
    v.wavg_store(outv.data(), av.data(), n);
    expect_bitwise_equal(outs, outv, "wavg_store");
  }
}

TEST(SimdParity, MatmulTileMatchesBitwise) {
  if (!avx2_usable()) GTEST_SKIP() << "AVX2 not available";
  const Kernels& s = quickdrop::simd::scalar_kernels();
  const Kernels& v = quickdrop::simd::avx2_kernels();
  // The 4x8 GEMM tile over packed B panels: k-group and tail lengths; A read
  // as a packed [kc][4] panel, as four rows and as four columns; one tile
  // and three side by side; a tile embedded in a wider output (ldc > 8);
  // both accumulator starts; and the IEEE edge cases spread densely (every
  // 3rd value) and sparsely (every 31st), so short and long chains both
  // carry finite and non-finite lanes. Which operand's NaN an add or
  // multiply of two NaNs returns is open in IEEE 754, and the compiler may
  // swap the operands of either (it treats both as commutative, intrinsics
  // included). Every NaN here is therefore the one 0 * inf produces on x86,
  // sign bit set, so any NaN a chain meets has the same bits.
  const auto default_nan = [](std::vector<float> v) {
    for (float& x : v) {
      if (std::isnan(x)) x = -std::numeric_limits<float>::quiet_NaN();
    }
    return v;
  };
  struct Layout {
    std::int64_t a_row, a_k;
  };
  for (const std::int64_t kc : {0, 1, 3, 4, 5, 8, 31, 129, 256}) {
    for (const Layout l : {Layout{1, 4}, Layout{kc + 3, 1}, Layout{1, 5}}) {
      const std::int64_t a_len = 4 * (kc + 3) + 5 * kc, b_len = 3 * 8 * kc;
      for (const std::int64_t every : {3, 31}) {
        std::vector<float> a = synth_buffer(a_len, 0.25f), b = synth_buffer(b_len, -0.5f);
        const auto ea = default_nan(edgy_buffer(a_len, 0.0f));
        const auto eb = default_nan(edgy_buffer(b_len + 1, 0.0f));
        for (std::size_t i = 0; i < a.size(); i += static_cast<std::size_t>(every)) a[i] = ea[i];
        for (std::size_t i = 0; i < b.size(); i += static_cast<std::size_t>(every)) {
          b[i] = eb[i + 1];
        }
        for (const std::int64_t strips : {1, 3}) {
          for (const std::int64_t ldc : {8 * strips, 8 * strips + 3}) {
            for (const bool load : {false, true}) {
              auto cs = default_nan(edgy_buffer(4 * ldc, -1.0f));
              auto cv = cs;
              s.gemm4x8(cs.data(), ldc, a.data(), l.a_row, l.a_k, b.data(), kc, strips, load);
              v.gemm4x8(cv.data(), ldc, a.data(), l.a_row, l.a_k, b.data(), kc, strips, load);
              expect_bitwise_equal(cs, cv, "gemm4x8");
            }
          }
        }
      }
    }
  }
  // The chain itself, on one element: +0, then ((a0*b0 + a1*b1) + a2*b2) +
  // a3*b3 per group of four, then the tail one product at a time.
  const float av[] = {1.0e8f, 1.0f, -1.0e8f, 1.0f, 3.0f};
  const float bv[] = {1.0f, 1.0f, 1.0f, 1.0f, 0.5f};
  std::vector<float> a(4 * 5, 0.0f), b(8 * 5, 0.0f);
  for (int p = 0; p < 5; ++p) {
    a[static_cast<std::size_t>(p * 4)] = av[p];
    a[static_cast<std::size_t>(p * 4 + 1)] = -1.0f;  // row 1 times column 1's zeros: all -0
    b[static_cast<std::size_t>(p * 8)] = bv[p];
  }
  const float want = 0.0f + (((1.0e8f + 1.0f) + -1.0e8f) + 1.0f) + 3.0f * 0.5f;
  for (const Kernels* k : {&s, &v}) {
    std::vector<float> c(32, 9.0f);
    k->gemm4x8(c.data(), 8, a.data(), 1, 4, b.data(), 5, 1, false);
    EXPECT_EQ(c[0], want) << k->name;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(c[9]), 0u) << k->name << ": starts from +0";
  }
}

// ---------------------------------------------------------------------------
// The memory-bound tensor kernels: fill, sqrt, the eight-chain row sums,
// im2col's plane, col2im's shifted add and the 2x2 pool pair. Every length
// 0-33 (the four- and eight-lane steps and their ragged ends), outputs and
// inputs off their allocation's alignment, and guard floats on both sides
// of every output that must come back untouched.
// ---------------------------------------------------------------------------

/// Bit patterns of the IEEE edge cases: signed zeros, infinities, quiet and
/// signaling NaNs with payloads (both signs), subnormals, and extremes.
const std::uint32_t kEdgeBits[] = {0x00000000u, 0x80000000u, 0x7f800000u, 0xff800000u,
                                   0x7fc00000u, 0xffc00001u, 0x7fa12345u, 0xff812345u,
                                   0x00000001u, 0x807fffffu, 0x00400000u, 0x7f7fffffu,
                                   0xff7fffffu, 0x00800000u};

bool finite_bits(std::uint32_t b) { return (b & 0x7f800000u) != 0x7f800000u; }

/// n values; every `every`-th one an edge case. With `finite_only` the
/// infinities and NaNs are skipped, so a sum chain meets at most the ones
/// the caller places itself.
std::vector<float> edge_values(std::int64_t n, std::int64_t every, bool finite_only,
                               std::int64_t phase = 0) {
  std::vector<float> v = synth_buffer(n, 0.125f * static_cast<float>(phase));
  std::size_t pick = static_cast<std::size_t>(phase);
  for (std::int64_t i = phase % every; i < n; i += every) {
    std::uint32_t b = kEdgeBits[pick++ % std::size(kEdgeBits)];
    while (finite_only && !finite_bits(b)) b = kEdgeBits[pick++ % std::size(kEdgeBits)];
    v[static_cast<std::size_t>(i)] = std::bit_cast<float>(b);
  }
  return v;
}

constexpr float kGuard = 1234.5f;
constexpr std::size_t kGuardFloats = 9;

/// An output buffer of n floats with kGuardFloats guard floats before and
/// after it. The odd guard count starts the output off the allocation's
/// 16-byte alignment.
struct Guarded {
  std::vector<float> buf;
  explicit Guarded(std::int64_t n, float init = 0.0f)
      : buf(static_cast<std::size_t>(n) + 2 * kGuardFloats, kGuard) {
    std::fill(data(), data() + n, init);
  }
  float* data() { return buf.data() + kGuardFloats; }
  std::vector<float> out(std::int64_t n) { return {data(), data() + n}; }
  void expect_guards(std::int64_t n, const char* what) {
    for (std::size_t i = 0; i < buf.size(); ++i) {
      if (i >= kGuardFloats && i < kGuardFloats + static_cast<std::size_t>(n)) continue;
      ASSERT_EQ(buf[i], kGuard) << what << " wrote outside its output at " << i;
    }
  }
};

std::vector<const Kernels*> both_tables() {
  std::vector<const Kernels*> tables = {&quickdrop::simd::scalar_kernels()};
  if (avx2_usable()) tables.push_back(&quickdrop::simd::avx2_kernels());
  return tables;
}

TEST(SimdParity, FillWritesExactlyItsRun) {
  for (std::int64_t n = 0; n <= 33; ++n) {
    for (const std::uint32_t bits : kEdgeBits) {
      const float v = std::bit_cast<float>(bits);
      for (const Kernels* k : both_tables()) {
        Guarded o(n);
        k->fill(o.data(), v, n);
        o.expect_guards(n, k->name);
        for (std::int64_t i = 0; i < n; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(o.data()[i]), bits) << k->name << " n " << n;
        }
      }
    }
  }
}

TEST(SimdParity, SqrtMatchesTheScalarCallBitwise) {
  // Negative inputs give the default NaN; NaN inputs come back quieted with
  // their payload; subnormals and zeros keep their sign.
  for (std::int64_t n = 0; n <= 33; ++n) {
    std::vector<float> a = edge_values(n + 1, 2, false, n);
    for (std::int64_t i = 1; i < n + 1; i += 5) a[static_cast<std::size_t>(i)] = -2.5f;
    std::vector<float> want(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      want[static_cast<std::size_t>(i)] = std::sqrt(a[static_cast<std::size_t>(i + 1)]);
    }
    for (const Kernels* k : both_tables()) {
      Guarded o(n);
      k->sqrt(o.data(), a.data() + 1, n);  // unaligned input
      o.expect_guards(n, k->name);
      expect_bitwise_equal(o.out(n), want, k->name);
    }
  }
}

TEST(SimdParity, SumRows8KeepsEachChainSerial) {
  if (!avx2_usable()) GTEST_SKIP() << "AVX2 not available";
  const Kernels& s = quickdrop::simd::scalar_kernels();
  const Kernels& v = quickdrop::simd::avx2_kernels();
  for (std::int64_t n = 0; n <= 33; ++n) {
    // Eight rows at unrelated (and unaligned) offsets of one buffer; finite
    // edge cases throughout, and one infinity or NaN in some rows, so every
    // chain meets at most one non-finite value.
    std::vector<float> buf = edge_values(8 * (n + 3), 3, true, n);
    const float* rows[8];
    for (int g = 0; g < 8; ++g) {
      const std::int64_t at = g * (n + 3) + 1 + g % 3;
      rows[g] = buf.data() + at;
      if (g % 2 == 1 && n > 0) {
        buf[static_cast<std::size_t>(at + (g * 7) % n)] =
            std::bit_cast<float>(kEdgeBits[2 + g % 6]);  // ±inf and NaNs
      }
    }
    for (const float start : {0.0f, -0.0f, 3.5f}) {
      float as[8], av[8];
      for (int g = 0; g < 8; ++g) as[g] = av[g] = g == 5 ? 1.0e-40f : start;
      s.sum_rows8(as, rows, n);
      v.sum_rows8(av, rows, n);
      expect_bitwise_equal(std::vector<float>(as, as + 8), std::vector<float>(av, av + 8),
                           "sum_rows8");
    }
  }
  // The chain itself: +0, then left to right, so the large terms cancel
  // before the small one is added.
  const float row[] = {1.0e8f, 1.0f, -1.0e8f, 1.0f, 0.5f, 0.25f, 0.0f, 0.0f, 0.0f, 2.0f};
  const float* rows[8];
  for (auto& r : rows) r = row;
  const float want = ((((((((((0.0f + 1.0e8f) + 1.0f) + -1.0e8f) + 1.0f) + 0.5f) + 0.25f) +
                         0.0f) + 0.0f) + 0.0f) + 2.0f);
  for (const Kernels* k : both_tables()) {
    float acc[8] = {};
    k->sum_rows8(acc, rows, 10);
    for (const float a : acc) EXPECT_EQ(a, want) << k->name;
  }
}

/// Convolution geometries over image widths 1-33: kernel sizes 1, 3 and 5,
/// padding 0-2 (so grids narrower than, as wide as and wider than the
/// image), strides 1 and 2.
std::vector<quickdrop::simd::ConvGeometry> conv_geometries() {
  std::vector<quickdrop::simd::ConvGeometry> out;
  for (std::int64_t w = 1; w <= 33; ++w) {
    for (const std::int64_t k : {1, 3, 5}) {
      for (const std::int64_t pad : {0, 1, 2}) {
        for (const std::int64_t stride : {1, 2}) {
          const std::int64_t h = 1 + (w * 7 + k) % 5;
          if (h + 2 * pad < k || w + 2 * pad < k) continue;
          out.push_back({.h = h,
                         .w = w,
                         .k = k,
                         .pad = pad,
                         .stride = stride,
                         .oh = (h + 2 * pad - k) / stride + 1,
                         .ow = (w + 2 * pad - k) / stride + 1});
        }
      }
    }
  }
  return out;
}

TEST(SimdParity, Im2ColRowWritesImageAndPadding) {
  if (!avx2_usable()) GTEST_SKIP() << "AVX2 not available";
  const Kernels& s = quickdrop::simd::scalar_kernels();
  const Kernels& v = quickdrop::simd::avx2_kernels();
  for (const auto& g : conv_geometries()) {
    const std::int64_t images = 2, plane = g.h * g.w + 3;  // planes 3 floats apart
    const std::vector<float> x = edge_values(images * plane + 1, 3, false, g.w);
    for (std::int64_t ki = 0; ki < g.k; ++ki) {
      for (std::int64_t kj = 0; kj < g.k; ++kj) {
        const std::int64_t len = images * g.oh * g.ow;
        Guarded os(len, -7.0f), ov(len, -7.0f);
        s.im2col_row(os.data(), x.data() + 1, images, plane, g, ki, kj);
        v.im2col_row(ov.data(), x.data() + 1, images, plane, g, ki, kj);
        os.expect_guards(len, "im2col_row scalar");
        ov.expect_guards(len, "im2col_row avx2");
        expect_bitwise_equal(os.out(len), ov.out(len), "im2col_row");
        // Every grid position is written: the image's pixel or +0.
        for (std::int64_t i = 0; i < len; ++i) ASSERT_NE(ov.data()[i], -7.0f) << i;
      }
    }
  }
}

TEST(SimdParity, Col2ImPlaneSumsEachPixelFromZero) {
  if (!avx2_usable()) GTEST_SKIP() << "AVX2 not available";
  const Kernels& s = quickdrop::simd::scalar_kernels();
  const Kernels& v = quickdrop::simd::avx2_kernels();
  for (const auto& g : conv_geometries()) {
    // The k*k offsets' grids, each 5 floats past the last; finite edge cases
    // (signed zeros, subnormals, the largest magnitudes, whose sums overflow
    // to infinities) and a sparse NaN payload.
    const std::int64_t stride = g.oh * g.ow + 5;
    std::vector<float> cols = edge_values(g.k * g.k * stride + 1, 3, true, g.w);
    for (std::size_t i = 17; i < cols.size(); i += 97) cols[i] = std::bit_cast<float>(0x7fa12345u);
    const std::int64_t len = g.h * g.w;
    Guarded os(len, -7.0f), ov(len, -7.0f);
    s.col2im_plane(os.data(), cols.data() + 1, stride, g);
    v.col2im_plane(ov.data(), cols.data() + 1, stride, g);
    os.expect_guards(len, "col2im_plane scalar");
    ov.expect_guards(len, "col2im_plane avx2");
    expect_bitwise_equal(os.out(len), ov.out(len), "col2im_plane");
  }
  // The chain itself, on the centre pixel of a 3x3 image under a 3x3 pad-1
  // kernel, which every offset reaches (offset (ki, kj) at grid position
  // (2 - ki, 2 - kj)): +0, then the offsets in (ki, kj) order, so the large
  // terms cancel before the small ones are added. All -0 columns give +0.
  const quickdrop::simd::ConvGeometry g{.h = 3, .w = 3, .k = 3, .pad = 1, .stride = 1, .oh = 3,
                                        .ow = 3};
  const float terms[9] = {1.0e8f, 1.0f, -1.0e8f, 1.0f, 0.5f, 0.0f, 0.0f, 0.0f, 0.0f};
  std::vector<float> cols(81, 0.0f);
  for (int o = 0; o < 9; ++o) {
    cols[static_cast<std::size_t>(o * 9 + (2 - o / 3) * 3 + 2 - o % 3)] = terms[o];
  }
  const float want = ((((0.0f + 1.0e8f) + 1.0f) + -1.0e8f) + 1.0f) + 0.5f;
  const std::vector<float> negzero(81, -0.0f);
  for (const Kernels* k : both_tables()) {
    float img[9];
    k->col2im_plane(img, cols.data(), 9, g);
    EXPECT_EQ(img[4], want) << k->name;
    k->col2im_plane(img, negzero.data(), 9, g);
    for (const float p : img) EXPECT_EQ(std::bit_cast<std::uint32_t>(p), 0u) << k->name;
  }
}

TEST(SimdParity, PoolPairMatchesBitwise) {
  if (!avx2_usable()) GTEST_SKIP() << "AVX2 not available";
  const Kernels& s = quickdrop::simd::scalar_kernels();
  const Kernels& v = quickdrop::simd::avx2_kernels();
  for (std::int64_t ow = 0; ow <= 33; ++ow) {
    for (const std::int64_t k : {1, 2, 3}) {
      for (const std::int64_t rows : {1, 3}) {
        const std::int64_t w = ow * k, in = rows * k * w, out = rows * ow;
        // Finite edge cases anywhere, and an infinity or NaN only at each
        // window's top-left input, so every window's chain meets at most one.
        std::vector<float> x = edge_values(in + 1, 3, true, ow);
        for (std::int64_t r = 0; r < rows; ++r) {
          for (std::int64_t j = 0; j < ow; j += 3) {
            x[static_cast<std::size_t>(1 + r * k * w + j * k)] =
                std::bit_cast<float>(kEdgeBits[2 + (r + j) % 6]);
          }
        }
        Guarded ps(out), pv(out);
        s.sum_pool(ps.data(), x.data() + 1, rows, ow, k);
        v.sum_pool(pv.data(), x.data() + 1, rows, ow, k);
        ps.expect_guards(out, "sum_pool scalar");
        pv.expect_guards(out, "sum_pool avx2");
        expect_bitwise_equal(ps.out(out), pv.out(out), "sum_pool");

        const std::vector<float> g = edge_values(out + 1, 2, false, k);
        Guarded ss(in), sv(in);
        s.spread_pool(ss.data(), g.data() + 1, rows, ow, k);
        v.spread_pool(sv.data(), g.data() + 1, rows, ow, k);
        ss.expect_guards(in, "spread_pool scalar");
        sv.expect_guards(in, "spread_pool avx2");
        expect_bitwise_equal(ss.out(in), sv.out(in), "spread_pool");
      }
    }
  }
  // A window sums from +0: four -0 inputs give +0.
  const float zeros[8] = {-0.0f, -0.0f, -0.0f, -0.0f, -0.0f, -0.0f, -0.0f, -0.0f};
  for (const Kernels* k : both_tables()) {
    float o[2] = {9.0f, 9.0f};
    k->sum_pool(o, zeros, 1, 2, 2);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(o[0]), 0u) << k->name;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(o[1]), 0u) << k->name;
  }
}

// ---------------------------------------------------------------------------
// End-to-end: the dispatched matmul kernel is bitwise identical across
// dispatch paths and thread counts (the golden-checkpoint metrics depend on
// this forward path staying put).
// ---------------------------------------------------------------------------

Tensor synth_matrix(std::int64_t rows, std::int64_t cols, float phase) {
  Tensor t({rows, cols});
  auto d = t.data();
  for (std::size_t i = 0; i < d.size(); ++i) {
    d[i] = synth_value(static_cast<std::int64_t>(i), phase);
  }
  return t;
}

TEST(SimdDispatch, MatmulBitwiseAcrossDispatchAndThreads) {
  if (!avx2_usable()) GTEST_SKIP() << "AVX2 not available";
  // Sizes straddle the 4-way kk unroll (k=9, k=130 also crosses the kk tile)
  // and leave a j-loop tail (n=13, n=33).
  const struct {
    std::int64_t m, k, n;
  } cases[] = {{5, 9, 13}, {17, 130, 33}, {8, 4, 8}};
  for (const auto& c : cases) {
    const Tensor a = synth_matrix(c.m, c.k, 0.5f);
    const Tensor b = synth_matrix(c.k, c.n, -0.25f);
    std::vector<float> reference;
    {
      DispatchScope dispatch(Dispatch::kScalar);
      PoolScope pool(1);
      const Tensor out = quickdrop::kernels::matmul(a, b);
      reference.assign(out.data().begin(), out.data().end());
    }
    for (const int threads : {1, 4, 8}) {
      for (const Dispatch d : {Dispatch::kScalar, Dispatch::kAvx2}) {
        DispatchScope dispatch(d);
        PoolScope pool(threads);
        const Tensor out = quickdrop::kernels::matmul(a, b);
        std::vector<float> got(out.data().begin(), out.data().end());
        expect_bitwise_equal(reference, got, "matmul");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------------------

TEST(SimdDispatch, ForceDispatchSelectsRequestedTable) {
  {
    DispatchScope dispatch(Dispatch::kScalar);
    EXPECT_STREQ(quickdrop::simd::active().name, "scalar");
    EXPECT_EQ(quickdrop::simd::active_dispatch(), Dispatch::kScalar);
  }
  if (avx2_usable()) {
    DispatchScope dispatch(Dispatch::kAvx2);
    EXPECT_STREQ(quickdrop::simd::active().name, "avx2");
    EXPECT_EQ(quickdrop::simd::active_dispatch(), Dispatch::kAvx2);
  }
}

TEST(SimdDispatch, Avx2RequestDegradesToScalarWhenUnsupported) {
  if (avx2_usable()) GTEST_SKIP() << "AVX2 available; degradation path not reachable";
  DispatchScope dispatch(Dispatch::kAvx2);
  EXPECT_STREQ(quickdrop::simd::active().name, "scalar");
}

TEST(SimdDispatch, ScalarOracleTablesAreDistinctWhenAvx2Compiled) {
  if (!avx2_usable()) GTEST_SKIP() << "AVX2 not available";
  EXPECT_NE(&quickdrop::simd::scalar_kernels(), &quickdrop::simd::avx2_kernels());
}

}  // namespace
