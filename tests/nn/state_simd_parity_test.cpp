// SIMD-vs-scalar bitwise parity for every vectorized state-plane kernel at
// 1/4/8 threads (DESIGN.md §13): axpy, scale, subtract, l2_norm/l2_distance
// and weighted_average must produce identical bits whichever microkernel
// table the dispatch layer selected and however the pool partitions them.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "nn/state.h"
#include "weighted_average_oracle.h"
#include "tensor/simd.h"
#include "util/thread_pool.h"

namespace {

using quickdrop::Shape;
using quickdrop::nn::ModelState;
using quickdrop::nn::StateLayout;
using quickdrop::simd::Dispatch;

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

// Spans several kStateBlock reduction blocks with a ragged tail, so lane
// tails, block boundaries and chunk cuts all get exercised.
const std::vector<Shape> kShapes = {{16, 3, 3, 3}, {16}, {200, 173}, {173}, {3}};

void expect_bitwise_equal(const ModelState& a, const ModelState& b, const char* what) {
  ASSERT_EQ(a.numel(), b.numel());
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a.at(i)), std::bit_cast<std::uint32_t>(b.at(i)))
        << what << " diverges at flat index " << i;
  }
}

struct DispatchScope {
  explicit DispatchScope(Dispatch d) { quickdrop::simd::force_dispatch(d); }
  ~DispatchScope() { quickdrop::simd::force_dispatch(Dispatch::kAuto); }
};

struct PoolScope {
  explicit PoolScope(int threads) : saved(quickdrop::num_threads()) {
    quickdrop::set_num_threads(threads);
  }
  ~PoolScope() { quickdrop::set_num_threads(saved); }
  int saved;
};

/// One full pass over every vectorized state kernel under the ambient
/// dispatch + thread count.
struct KernelResults {
  ModelState axpy_out;
  ModelState scale_out;
  ModelState subtract_out;
  ModelState wavg_out;
  double norm = 0.0;
  double distance = 0.0;
};

KernelResults run_all_kernels() {
  const ModelState a = make_state(kShapes, 0.0f);
  const ModelState b = make_state(kShapes, 0.5f);
  KernelResults r;
  r.axpy_out = a;
  quickdrop::nn::axpy(r.axpy_out, b, 0.3125f);
  r.scale_out = a;
  quickdrop::nn::scale(r.scale_out, 0.731f);
  r.subtract_out = quickdrop::nn::subtract(a, b);
  std::vector<ModelState> states;
  std::vector<float> weights;
  for (int i = 0; i < 7; ++i) {
    states.push_back(make_state(kShapes, 0.1f * static_cast<float>(i)));
    weights.push_back(i % 2 == 0 ? 0.21f : 0.0013f);
  }
  r.wavg_out = quickdrop::nn::oracle::weighted_average(states, weights);
  r.norm = quickdrop::nn::l2_norm(a);
  r.distance = quickdrop::nn::l2_distance(a, b);
  return r;
}

TEST(StateSimdParity, AllKernelsBitwiseAcrossDispatchAndThreads) {
  const bool avx2 = quickdrop::simd::avx2_compiled() && quickdrop::simd::avx2_supported();
  KernelResults reference;
  {
    DispatchScope dispatch(Dispatch::kScalar);
    PoolScope pool(1);
    reference = run_all_kernels();
  }
  for (const int threads : {1, 4, 8}) {
    for (const Dispatch d : {Dispatch::kScalar, Dispatch::kAvx2}) {
      if (d == Dispatch::kAvx2 && !avx2) continue;
      SCOPED_TRACE(testing::Message() << "threads=" << threads << " dispatch="
                                      << (d == Dispatch::kScalar ? "scalar" : "avx2"));
      DispatchScope dispatch(d);
      PoolScope pool(threads);
      const KernelResults got = run_all_kernels();
      expect_bitwise_equal(reference.axpy_out, got.axpy_out, "axpy");
      expect_bitwise_equal(reference.scale_out, got.scale_out, "scale");
      expect_bitwise_equal(reference.subtract_out, got.subtract_out, "subtract");
      expect_bitwise_equal(reference.wavg_out, got.wavg_out, "weighted_average");
      EXPECT_EQ(std::bit_cast<std::uint64_t>(reference.norm), std::bit_cast<std::uint64_t>(got.norm));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(reference.distance),
                std::bit_cast<std::uint64_t>(got.distance));
    }
  }
  if (!avx2) {
    GTEST_SKIP() << "AVX2 not available: cross-dispatch half not exercised";
  }
}

TEST(StateSimdParity, L2DistanceStillMatchesSubtractThenNorm) {
  const ModelState a = make_state(kShapes, 0.0f);
  const ModelState b = make_state(kShapes, 0.5f);
  for (const Dispatch d : {Dispatch::kScalar, Dispatch::kAvx2}) {
    if (d == Dispatch::kAvx2 &&
        !(quickdrop::simd::avx2_compiled() && quickdrop::simd::avx2_supported())) {
      continue;
    }
    DispatchScope dispatch(d);
    const double direct = quickdrop::nn::l2_distance(a, b);
    const double via_subtract = quickdrop::nn::l2_norm(quickdrop::nn::subtract(a, b));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(direct), std::bit_cast<std::uint64_t>(via_subtract));
  }
}

}  // namespace
