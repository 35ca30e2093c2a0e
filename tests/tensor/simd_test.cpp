// SIMD-vs-scalar bitwise parity for the dispatched microkernels (DESIGN.md
// §13): the scalar table is the oracle; the AVX2 table must reproduce every
// result bit-for-bit, including reduction lane structure, tail handling and
// the IEEE edge cases (NaN, signed zeros, denormals) of the binary and relu
// runs.
// Also covers the dispatch plumbing itself and the matmul path end-to-end.

#include <gtest/gtest.h>

#include <bit>
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

TEST(SimdParity, Transpose8x8MatchesBitwise) {
  if (!avx2_usable()) GTEST_SKIP() << "AVX2 not available";
  const Kernels& s = quickdrop::simd::scalar_kernels();
  const Kernels& v = quickdrop::simd::avx2_kernels();
  // Strided source and destination, NaN payloads and signed zeros included:
  // the tile must move bits, not values.
  const std::int64_t lds = 11, ldd = 13;
  const auto src = edgy_buffer(8 * lds, 0.5f);
  std::vector<float> ds(8 * ldd, 7.0f), dv(8 * ldd, 7.0f);
  s.transpose8x8(ds.data(), ldd, src.data(), lds);
  v.transpose8x8(dv.data(), ldd, src.data(), lds);
  expect_bitwise_equal(ds, dv, "transpose8x8");
  for (std::int64_t r = 0; r < 8; ++r) {
    for (std::int64_t c = 0; c < 8; ++c) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(ds[static_cast<std::size_t>(c * ldd + r)]),
                std::bit_cast<std::uint32_t>(src[static_cast<std::size_t>(r * lds + c)]));
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
  for (const std::int64_t n : kSizes) {
    const auto b0 = synth_buffer(n, 0.1f), b1 = synth_buffer(n, 0.2f);
    const auto b2 = synth_buffer(n, 0.3f), b3 = synth_buffer(n, 0.4f);
    auto cs = synth_buffer(n, -1.0f);
    auto cv = cs;
    s.matmul_tile4(cs.data(), 0.17f, -0.61f, 1.13f, 0.029f, b0.data(), b1.data(), b2.data(),
                   b3.data(), n);
    v.matmul_tile4(cv.data(), 0.17f, -0.61f, 1.13f, 0.029f, b0.data(), b1.data(), b2.data(),
                   b3.data(), n);
    expect_bitwise_equal(cs, cv, "matmul_tile4");
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
