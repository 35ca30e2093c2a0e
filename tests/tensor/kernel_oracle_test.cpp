// Property test of the contiguous-run kernels against the per-element
// reference kernels they replaced (kernel_oracle.h): on randomised shapes —
// rank 0-6, size-1 dims, broadcasting on either operand, non-adjacent
// reduced dims, tensors large enough that thread chunks cut runs mid-way —
// every result must be memcmp-equal to the reference at 1 and 4 threads,
// under both the scalar and the AVX2 dispatch table. The matrix products
// meet the per-element chain of oracle::matmul on explicitly transposed
// operands, and the pool pair the reshape/reduce/broadcast compositions it
// replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "kernel_oracle.h"
#include "tensor/kernels.h"
#include "tensor/simd.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace quickdrop::kernels {
namespace {

using simd::Dispatch;

struct Restore {
  int threads = num_threads();
  ~Restore() {
    set_num_threads(threads);
    simd::force_dispatch(Dispatch::kAuto);
  }
};

/// Normal values with signed zeros, infinities and NaN sprinkled in, so a
/// reordered sum or a mis-vectorised lane shows up in the bits.
Tensor values(const Shape& shape, Rng& rng) {
  Tensor t = Tensor::randn(shape, rng);
  const float specials[] = {-0.0f, 0.0f, std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(), 1.0e30f, -1.0e-30f};
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    if (rng.uniform_u64(53) == 0) t.at(i) = specials[rng.uniform_u64(6)];
  }
  return t;
}

std::int64_t pick_extent(Rng& rng) {
  const std::int64_t extents[] = {1, 1, 2, 3, 4, 5, 7, 9, 16};
  return extents[rng.uniform_u64(9)];
}

Shape random_shape(Rng& rng, int max_rank = 6) {
  Shape s(rng.uniform_u64(static_cast<std::uint64_t>(max_rank) + 1));
  for (auto& e : s) e = pick_extent(rng);
  return s;
}

/// A shape that broadcasts to `full`: some dims set to 1, some leading dims
/// dropped.
Shape squeeze_some(const Shape& full, Rng& rng) {
  Shape s(full.begin() + static_cast<std::ptrdiff_t>(rng.uniform_u64(full.size() + 1) / 2),
          full.end());
  for (auto& e : s) {
    if (rng.uniform_u64(2) == 0) e = 1;
  }
  return s;
}

std::string describe(const std::vector<Shape>& shapes) {
  std::string out;
  for (const auto& s : shapes) out += shape_to_string(s) + " ";
  return out;
}

/// Runs `got` under every thread count and dispatch table and compares its
/// bytes with the reference result.
void expect_matches(const Tensor& want, const std::function<Tensor()>& got,
                    const std::string& what) {
  const Restore restore;
  for (const int threads : {1, 4}) {
    for (const Dispatch d : {Dispatch::kScalar, Dispatch::kAvx2}) {
      set_num_threads(threads);
      simd::force_dispatch(d);
      const Tensor out = got();
      ASSERT_EQ(out.shape(), want.shape()) << what;
      ASSERT_EQ(std::memcmp(out.data().data(), want.data().data(),
                            static_cast<std::size_t>(want.numel()) * sizeof(float)),
                0)
          << what << " differs at " << threads << " threads, " << simd::active().name;
    }
  }
}

TEST(KernelOracle, BinaryOpsBroadcastEitherOperand) {
  Rng rng(101);
  for (int trial = 0; trial < 200; ++trial) {
    const Shape full = random_shape(rng);
    Shape sa = full, sb = full;
    switch (trial % 3) {
      case 0: sb = squeeze_some(full, rng); break;
      case 1: sa = squeeze_some(full, rng); break;
      default:
        sa = squeeze_some(full, rng);
        sb = squeeze_some(full, rng);
    }
    const Tensor a = values(sa, rng), b = values(sb, rng);
    const std::string what = describe({sa, sb});
    expect_matches(oracle::add(a, b), [&] { return add(a, b); }, "add " + what);
    expect_matches(oracle::sub(a, b), [&] { return sub(a, b); }, "sub " + what);
    expect_matches(oracle::mul(a, b), [&] { return mul(a, b); }, "mul " + what);
    expect_matches(oracle::div(a, b), [&] { return div(a, b); }, "div " + what);
  }
}

TEST(KernelOracle, BinaryOpsOnConvNetShapesAndChunkedRuns) {
  Rng rng(102);
  const std::vector<std::pair<Shape, Shape>> cases = {
      {{37, 16, 12, 12}, {37, 16, 1, 1}},  // InstanceNorm: [N*C, H*W] op [N*C, 1]
      {{37, 16, 12, 12}, {1, 16, 1, 1}},   // gamma/beta and the conv bias
      {{1}, {37, 16, 1, 1}},               // 1 / sqrt(var + eps)
      {{333, 10}, {10}},                   // Linear bias
      {{333, 10}, {333, 1}},               // log-softmax shift
      {{3, 7, 41, 61}, {3, 7, 41, 61}},    // same shape, chunks of a flat run
      {{5, 1, 97, 1, 33}, {1, 11, 97, 3, 1}},
  };
  for (const auto& [sa, sb] : cases) {
    const Tensor a = values(sa, rng), b = values(sb, rng);
    for (const bool swap : {false, true}) {
      const Tensor& l = swap ? b : a;
      const Tensor& r = swap ? a : b;
      const std::string what = describe({l.shape(), r.shape()});
      expect_matches(oracle::add(l, r), [&] { return add(l, r); }, "add " + what);
      expect_matches(oracle::sub(l, r), [&] { return sub(l, r); }, "sub " + what);
      expect_matches(oracle::mul(l, r), [&] { return mul(l, r); }, "mul " + what);
      expect_matches(oracle::div(l, r), [&] { return div(l, r); }, "div " + what);
    }
  }
}

TEST(KernelOracle, ElementwiseRuns) {
  Rng rng(103);
  for (const Shape& s : std::vector<Shape>{{}, {1}, {7}, {3, 7, 41, 61}, {33, 17}}) {
    const Tensor a = values(s, rng);
    const std::string what = shape_to_string(s);
    expect_matches(oracle::relu(a), [&] { return relu(a); }, "relu " + what);
    expect_matches(oracle::gt_zero_mask(a), [&] { return gt_zero_mask(a); }, "mask " + what);
    expect_matches(oracle::add_scalar(a, 0.3f), [&] { return add_scalar(a, 0.3f); },
                   "add_scalar " + what);
    expect_matches(oracle::mul_scalar(a, -1.7f), [&] { return mul_scalar(a, -1.7f); },
                   "mul_scalar " + what);
  }
}

TEST(KernelOracle, BroadcastTo) {
  Rng rng(104);
  for (int trial = 0; trial < 200; ++trial) {
    const Shape full = random_shape(rng);
    const Tensor a = values(squeeze_some(full, rng), rng);
    expect_matches(oracle::broadcast_to(a, full), [&] { return broadcast_to(a, full); },
                   "broadcast_to " + describe({a.shape(), full}));
  }
  // AvgPool's backward, and a chunked one.
  for (const auto& [from, to] : std::vector<std::pair<Shape, Shape>>{
           {{5, 16, 6, 1, 6, 1}, {5, 16, 6, 2, 6, 2}}, {{37, 16, 1, 1}, {37, 16, 12, 12}}}) {
    const Tensor a = values(from, rng);
    expect_matches(oracle::broadcast_to(a, to), [&] { return broadcast_to(a, to); },
                   "broadcast_to " + describe({from, to}));
  }
}

TEST(KernelOracle, ReduceSumTo) {
  Rng rng(105);
  for (int trial = 0; trial < 300; ++trial) {
    const Shape full = random_shape(rng);
    const Shape target = squeeze_some(full, rng);
    const Tensor a = values(full, rng);
    expect_matches(oracle::reduce_sum_to(a, target), [&] { return reduce_sum_to(a, target); },
                   "reduce_sum_to " + describe({full, target}));
  }
  const std::vector<std::pair<Shape, Shape>> cases = {
      {{5, 16, 6, 2, 6, 2}, {5, 16, 6, 1, 6, 1}},  // AvgPool: non-adjacent reduced dims
      {{37, 16, 12, 12}, {37, 16, 1, 1}},          // InstanceNorm statistics
      {{37, 16, 12, 12}, {1, 16, 1, 1}},           // conv-bias gradient
      {{300, 97}, {97}},                           // Linear bias: kept innermost, chunked
      {{300, 97}, {1, 97}},
      {{300, 97}, {300, 1}},                       // log-softmax row sums
      {{3, 7, 41, 61}, {}},                        // sum_all
      {{1, 7, 1, 5}, {7, 1, 5}},                   // only extent-1 dims differ
      {{9, 300, 5, 4}, {9, 1, 5, 1}},              // kept dims between reduced ones
      // The eight-chain row sums: runs of 1-17 floats (not multiples of 8),
      // output counts that leave a partial group of 1-7, and reduced dims
      // outside the run (several runs per output).
      {{10, 16, 6, 6}, {10, 16, 1, 1}},            // InstanceNorm after the first pool
      {{13, 5, 11}, {13, 5, 1}},
      {{3, 17}, {3, 1}},
      {{7, 9, 1}, {7, 1, 1}},
      {{1, 1}, {1, 1}},
      {{6, 13, 3, 7}, {1, 13, 1, 1}},              // batch and run reduced: conv-bias style
      {{4, 11, 5, 9}, {4, 1, 5, 1}},               // reduced dim outside the run, then kept
      {{2, 3, 19, 2, 5}, {1, 3, 1, 2, 1}},
  };
  for (const auto& [from, to] : cases) {
    const Tensor a = values(from, rng);
    expect_matches(oracle::reduce_sum_to(a, to), [&] { return reduce_sum_to(a, to); },
                   "reduce_sum_to " + describe({from, to}));
  }
}

TEST(KernelOracle, Permute) {
  Rng rng(106);
  for (int trial = 0; trial < 200; ++trial) {
    const Shape s = random_shape(rng);
    const std::vector<int> dims = rng.permutation(static_cast<int>(s.size()));
    const Tensor a = values(s, rng);
    expect_matches(oracle::permute(a, dims), [&] { return permute(a, dims); },
                   "permute " + shape_to_string(s));
  }
  const Tensor conv = values({16, 37, 12, 12}, rng);  // Conv2d's [F,N,OH,OW] -> [N,F,OH,OW]
  expect_matches(oracle::permute(conv, {1, 0, 2, 3}), [&] { return permute(conv, {1, 0, 2, 3}); },
                 "permute conv");
}

/// Matrix values with signed zeros, infinities, NaN and subnormals at a rate
/// of about one per two k-long dot products, so most outputs stay finite and
/// a reordered sum still shows up in their bits. Which operand's NaN an add
/// of two NaNs returns is left open by IEEE 754 and, in scalar C, by the
/// compiler's choice of operand order; the input NaN is therefore the one
/// that inf - inf and 0 * inf produce on x86 (sign bit set), so every NaN a
/// chain can meet has the same bits.
Tensor gemm_values(const Shape& shape, std::int64_t k, Rng& rng) {
  Tensor t = Tensor::randn(shape, rng);
  const float specials[] = {-0.0f,
                            0.0f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::denorm_min(),
                            -3.0e-39f};
  const std::uint64_t one_in = static_cast<std::uint64_t>(std::max<std::int64_t>(8, 4 * k));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    if (rng.uniform_u64(one_in) == 0) t.at(i) = specials[rng.uniform_u64(7)];
  }
  return t;
}

TEST(KernelOracle, MatmulProductsMatchTheScalarChain) {
  Rng rng(107);
  for (const std::int64_t m : {1, 3, 4, 5, 17}) {
    for (const std::int64_t n : {1, 7, 8, 9, 27}) {
      for (const std::int64_t k : {1, 3, 4, 5, 128, 129, 300, 10240}) {
        const Tensor a = gemm_values({m, k}, k, rng), b = gemm_values({k, n}, k, rng);
        const Tensor at = oracle::transpose2d(a), bt = oracle::transpose2d(b);
        const Tensor want = oracle::matmul(a, b);
        const std::string what = std::to_string(m) + "x" + std::to_string(k) + "x" +
                                 std::to_string(n);
        expect_matches(want, [&] { return matmul(a, b); }, "matmul " + what);
        expect_matches(want, [&] { return matmul_nt(a, bt); }, "matmul_nt " + what);
        expect_matches(want, [&] { return matmul_tn(at, b); }, "matmul_tn " + what);
      }
    }
  }
  // Outputs spanning several row and column blocks, so tasks split across
  // threads and ragged blocks meet full ones.
  const Tensor a = gemm_values({150, 37}, 37, rng), b = gemm_values({37, 530}, 37, rng);
  const Tensor want = oracle::matmul(a, b);
  expect_matches(want, [&] { return matmul(a, b); }, "matmul 150x37x530");
  expect_matches(want, [&] { return matmul_nt(a, oracle::transpose2d(b)); }, "matmul_nt blocks");
  expect_matches(want, [&] { return matmul_tn(oracle::transpose2d(a), b); }, "matmul_tn blocks");
}

TEST(KernelOracle, PoolPairMatchesReshapeReduceBroadcast) {
  // sum_pool2d and spread_pool2d against the compositions AvgPool2d used to
  // build: reshape to [N,C,OH,k,OW,k], then reduce_sum_to / broadcast_to.
  Rng rng(109);
  for (const auto& [image, k] : std::vector<std::pair<Shape, int>>{
           {{1, 1, 2, 2}, 2}, {{12, 16, 32, 32}, 2}, {{5, 3, 12, 12}, 2}, {{3, 7, 9, 6}, 3},
           {{2, 5, 6, 6}, 1}, {{2, 1, 6, 12}, 6}}) {
    const std::int64_t n = image[0], c = image[1], oh = image[2] / k, ow = image[3] / k;
    const Shape windows{n, c, oh, k, ow, k};
    const Shape sums{n, c, oh, 1, ow, 1};
    const Tensor x = values(image, rng);
    const std::string what = shape_to_string(image) + " k" + std::to_string(k);
    expect_matches(reduce_sum_to(x.reshaped(windows), sums).reshaped({n, c, oh, ow}),
                   [&] { return sum_pool2d(x, k); }, "sum_pool2d " + what);
    const Tensor g = values({n, c, oh, ow}, rng);
    expect_matches(broadcast_to(g.reshaped(sums), windows).reshaped(image),
                   [&] { return spread_pool2d(g, k); }, "spread_pool2d " + what);
  }
}

TEST(KernelOracle, Im2ColAndCol2Im) {
  Rng rng(108);
  for (int trial = 0; trial < 60; ++trial) {
    const int k = 1 + static_cast<int>(rng.uniform_u64(5));
    const int pad = static_cast<int>(rng.uniform_u64(3));
    const int stride = 1 + static_cast<int>(rng.uniform_u64(3));
    const std::int64_t h = std::max<std::int64_t>(k - 2 * pad, 1) + rng.uniform_u64(9);
    const std::int64_t w = std::max<std::int64_t>(k - 2 * pad, 1) + rng.uniform_u64(9);
    const Shape image{1 + static_cast<std::int64_t>(rng.uniform_u64(3)),
                      1 + static_cast<std::int64_t>(rng.uniform_u64(4)), h, w};
    const Tensor x = values(image, rng);
    const std::string what = shape_to_string(image) + " k" + std::to_string(k) + " p" +
                             std::to_string(pad) + " s" + std::to_string(stride);
    const Tensor cols = oracle::im2col(x, k, pad, stride);
    expect_matches(cols, [&] { return im2col(x, k, pad, stride); }, "im2col " + what);
    const Tensor g = values(cols.shape(), rng);
    expect_matches(oracle::col2im(g, image, k, pad, stride),
                   [&] { return col2im(g, image, k, pad, stride); }, "col2im " + what);
  }
  // The ConvNet's 3x3 pad-1 convolutions, large enough to split across threads.
  const Shape image{37, 16, 12, 12};
  const Tensor x = values(image, rng);
  const Tensor cols = oracle::im2col(x, 3, 1, 1);
  expect_matches(cols, [&] { return im2col(x, 3, 1, 1); }, "im2col convnet");
  expect_matches(oracle::col2im(cols, image, 3, 1, 1),
                 [&] { return col2im(cols, image, 3, 1, 1); }, "col2im convnet");
}

}  // namespace
}  // namespace quickdrop::kernels
