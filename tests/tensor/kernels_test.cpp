#include "tensor/kernels.h"

#include <gtest/gtest.h>

#include <cmath>

namespace quickdrop {
namespace {
namespace k = quickdrop::kernels;

TEST(KernelsTest, AddSameShape) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {10, 20, 30, 40});
  const auto c = k::add(a, b);
  EXPECT_FLOAT_EQ(c.at(0), 11.0f);
  EXPECT_FLOAT_EQ(c.at(3), 44.0f);
}

TEST(KernelsTest, AddBroadcastRow) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3}, {10, 20, 30});
  const auto c = k::add(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(c.at(0), 11.0f);
  EXPECT_FLOAT_EQ(c.at(5), 36.0f);
}

TEST(KernelsTest, MulBroadcastColumn) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({2, 1}, {10, 100});
  const auto c = k::mul(a, b);
  EXPECT_FLOAT_EQ(c.at(0), 10.0f);
  EXPECT_FLOAT_EQ(c.at(3), 400.0f);
}

TEST(KernelsTest, BroadcastScalar) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor s = Tensor::scalar(5.0f);
  const auto c = k::sub(a, s);
  EXPECT_FLOAT_EQ(c.at(0), -4.0f);
}

TEST(KernelsTest, IncompatibleBroadcastThrows) {
  Tensor a({2, 3});
  Tensor b({2, 4});
  EXPECT_THROW(k::add(a, b), std::invalid_argument);
}

TEST(KernelsTest, UnaryOps) {
  Tensor a({3}, {-1.0f, 0.0f, 2.0f});
  EXPECT_FLOAT_EQ(k::neg(a).at(0), 1.0f);
  EXPECT_FLOAT_EQ(k::relu(a).at(0), 0.0f);
  EXPECT_FLOAT_EQ(k::relu(a).at(2), 2.0f);
  EXPECT_FLOAT_EQ(k::gt_zero_mask(a).at(0), 0.0f);
  EXPECT_FLOAT_EQ(k::gt_zero_mask(a).at(2), 1.0f);
  EXPECT_NEAR(k::exp(a).at(2), std::exp(2.0f), 1e-5f);
  Tensor b({2}, {1.0f, 4.0f});
  EXPECT_FLOAT_EQ(k::sqrt(b).at(1), 2.0f);
  EXPECT_NEAR(k::log(b).at(1), std::log(4.0f), 1e-6f);
}

TEST(KernelsTest, ScalarOps) {
  Tensor a({2}, {1, 2});
  EXPECT_FLOAT_EQ(k::add_scalar(a, 3).at(1), 5.0f);
  EXPECT_FLOAT_EQ(k::mul_scalar(a, -2).at(0), -2.0f);
}

TEST(KernelsTest, MatmulKnownResult) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  const auto c = k::matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(c.at(0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(2), 139.0f);
  EXPECT_FLOAT_EQ(c.at(3), 154.0f);
}

TEST(KernelsTest, MatmulTransposedOperandsKnownResult) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor bt({2, 3}, {7, 9, 11, 8, 10, 12});  // b of MatmulKnownResult, transposed
  const auto nt = k::matmul_nt(a, bt);
  EXPECT_EQ(nt.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(nt.at(0), 58.0f);
  EXPECT_FLOAT_EQ(nt.at(3), 154.0f);
  Tensor at({3, 2}, {1, 4, 2, 5, 3, 6});  // a, transposed
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  const auto tn = k::matmul_tn(at, b);
  EXPECT_EQ(tn.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(tn.at(1), 64.0f);
  EXPECT_FLOAT_EQ(tn.at(2), 139.0f);
  // An empty inner dimension is an empty sum: +0 everywhere.
  const auto empty = k::matmul(Tensor({2, 0}), Tensor({0, 3}));
  EXPECT_EQ(empty.shape(), (Shape{2, 3}));
  for (std::int64_t i = 0; i < empty.numel(); ++i) EXPECT_EQ(empty.at(i), 0.0f);
}

TEST(KernelsTest, MatmulRejectsBadShapes) {
  EXPECT_THROW(k::matmul(Tensor({2, 3}), Tensor({2, 3})), std::invalid_argument);
  EXPECT_THROW(k::matmul(Tensor({6}), Tensor({6})), std::invalid_argument);
  EXPECT_THROW(k::matmul_nt(Tensor({2, 3}), Tensor({3, 2})), std::invalid_argument);
  EXPECT_THROW(k::matmul_tn(Tensor({2, 3}), Tensor({3, 2})), std::invalid_argument);
}

TEST(KernelsTest, PoolPairKnownValues) {
  Tensor x({1, 1, 2, 4}, {1, 2, 3, 4, 5, 6, 7, 8});
  const auto s = k::sum_pool2d(x, 2);
  EXPECT_EQ(s.shape(), (Shape{1, 1, 1, 2}));
  EXPECT_FLOAT_EQ(s.at(0), 14.0f);
  EXPECT_FLOAT_EQ(s.at(1), 22.0f);
  const auto g = k::spread_pool2d(s, 2);
  EXPECT_EQ(g.shape(), x.shape());
  const float want[] = {14, 14, 22, 22, 14, 14, 22, 22};
  for (std::int64_t i = 0; i < g.numel(); ++i) EXPECT_FLOAT_EQ(g.at(i), want[i]);
  EXPECT_THROW(k::sum_pool2d(Tensor({1, 1, 3, 4}), 2), std::invalid_argument);
  EXPECT_THROW(k::sum_pool2d(Tensor({4, 4}), 2), std::invalid_argument);
  EXPECT_THROW(k::spread_pool2d(Tensor({4, 4}), 2), std::invalid_argument);
}

TEST(KernelsTest, PermuteRoundTrip) {
  Tensor a({2, 3, 4});
  for (std::int64_t i = 0; i < a.numel(); ++i) a.at(i) = static_cast<float>(i);
  const auto p = k::permute(a, {2, 0, 1});
  EXPECT_EQ(p.shape(), (Shape{4, 2, 3}));
  const auto back = k::permute(p, {1, 2, 0});
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(back.at(i), a.at(i));
}

TEST(KernelsTest, PermuteValuesCorrect) {
  Tensor a({2, 3}, {0, 1, 2, 3, 4, 5});
  const auto p = k::permute(a, {1, 0});
  // Equivalent to transpose.
  EXPECT_EQ(p.shape(), (Shape{3, 2}));
  const float want[] = {0, 3, 1, 4, 2, 5};
  for (std::int64_t i = 0; i < p.numel(); ++i) EXPECT_FLOAT_EQ(p.at(i), want[i]);
}

TEST(KernelsTest, PermuteRejectsNonPermutation) {
  Tensor a({2, 3});
  EXPECT_THROW(k::permute(a, {0, 0}), std::invalid_argument);
  EXPECT_THROW(k::permute(a, {0}), std::invalid_argument);
}

TEST(KernelsTest, ReduceSumToColumn) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  const auto r = k::reduce_sum_to(a, {2, 1});
  EXPECT_FLOAT_EQ(r.at(0), 6.0f);
  EXPECT_FLOAT_EQ(r.at(1), 15.0f);
}

TEST(KernelsTest, ReduceSumToScalar) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  const auto r = k::reduce_sum_to(a, {});
  EXPECT_FLOAT_EQ(r.item(), 21.0f);
}

TEST(KernelsTest, ReduceSumToRejectsIncompatible) {
  Tensor a({2, 3});
  EXPECT_THROW(k::reduce_sum_to(a, {3, 3}), std::invalid_argument);
}

TEST(KernelsTest, BroadcastToExpands) {
  Tensor a({1, 3}, {1, 2, 3});
  const auto b = k::broadcast_to(a, {2, 3});
  EXPECT_FLOAT_EQ(b.at(3), 1.0f);
  EXPECT_FLOAT_EQ(b.at(5), 3.0f);
}

TEST(KernelsTest, BroadcastReduceAreAdjoint) {
  // <broadcast(a), y> == <a, reduce(y)> for all a, y: verify on fixed data.
  Tensor a({2, 1}, {2, 3});
  Tensor y({2, 3}, {1, 2, 3, 4, 5, 6});
  const auto ba = k::broadcast_to(a, {2, 3});
  const auto ry = k::reduce_sum_to(y, {2, 1});
  float lhs = 0, rhs = 0;
  for (std::int64_t i = 0; i < y.numel(); ++i) lhs += ba.at(i) * y.at(i);
  for (std::int64_t i = 0; i < a.numel(); ++i) rhs += a.at(i) * ry.at(i);
  EXPECT_FLOAT_EQ(lhs, rhs);
}

TEST(KernelsTest, Im2ColIdentityKernel) {
  // k=1, pad=0, stride=1: columns are just a reshuffled copy of the input.
  Tensor x({1, 2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  const auto cols = k::im2col(x, 1, 0, 1);
  EXPECT_EQ(cols.shape(), (Shape{2, 4}));
  EXPECT_FLOAT_EQ(cols.at(0), 1.0f);
  EXPECT_FLOAT_EQ(cols.at(4), 5.0f);
}

TEST(KernelsTest, Im2ColKnownPatch) {
  // 1x1x3x3 image, k=2, no pad: 4 patches.
  Tensor x({1, 1, 3, 3}, {0, 1, 2, 3, 4, 5, 6, 7, 8});
  const auto cols = k::im2col(x, 2, 0, 1);
  EXPECT_EQ(cols.shape(), (Shape{4, 4}));
  // Patch at (0,0): values 0,1,3,4 down the column.
  EXPECT_FLOAT_EQ(cols.at(0), 0.0f);   // row 0 (ki=0,kj=0), patch 0
  EXPECT_FLOAT_EQ(cols.at(4), 1.0f);   // row 1 (ki=0,kj=1), patch 0
  EXPECT_FLOAT_EQ(cols.at(8), 3.0f);   // row 2 (ki=1,kj=0), patch 0
  EXPECT_FLOAT_EQ(cols.at(12), 4.0f);  // row 3 (ki=1,kj=1), patch 0
  // Last patch (1,1): top-left value 4.
  EXPECT_FLOAT_EQ(cols.at(3), 4.0f);
}

TEST(KernelsTest, Im2ColPaddingZeros) {
  Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  const auto cols = k::im2col(x, 3, 1, 1);
  EXPECT_EQ(cols.shape(), (Shape{9, 4}));
  // Center tap (ki=1,kj=1) of patch 0 is x[0,0]=1.
  EXPECT_FLOAT_EQ(cols.at(4 * 4 + 0), 1.0f);
  // Top-left tap of patch 0 is padding.
  EXPECT_FLOAT_EQ(cols.at(0), 0.0f);
}

TEST(KernelsTest, Im2ColCol2ImAdjoint) {
  // <im2col(x), c> == <x, col2im(c)> — the defining adjoint identity.
  Rng rng(3);
  Tensor x = Tensor::randn({2, 3, 5, 5}, rng);
  const auto cols_shape = k::im2col(x, 3, 1, 1).shape();
  Tensor c = Tensor::randn(cols_shape, rng);
  const auto ix = k::im2col(x, 3, 1, 1);
  const auto cy = k::col2im(c, x.shape(), 3, 1, 1);
  double lhs = 0, rhs = 0;
  for (std::int64_t i = 0; i < ix.numel(); ++i) lhs += ix.at(i) * c.at(i);
  for (std::int64_t i = 0; i < x.numel(); ++i) rhs += x.at(i) * cy.at(i);
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

TEST(KernelsTest, Im2ColStride2) {
  Tensor x({1, 1, 4, 4});
  for (std::int64_t i = 0; i < 16; ++i) x.at(i) = static_cast<float>(i);
  const auto cols = k::im2col(x, 2, 0, 2);
  EXPECT_EQ(cols.shape(), (Shape{4, 4}));  // 2x2 output positions
  EXPECT_FLOAT_EQ(cols.at(0), 0.0f);
  EXPECT_FLOAT_EQ(cols.at(1), 2.0f);  // next patch starts at column 2
}

TEST(KernelsTest, ConvGeometryValidation) {
  Tensor x({1, 1, 2, 2});
  EXPECT_THROW(k::im2col(x, 5, 0, 1), std::invalid_argument);
  EXPECT_THROW(k::im2col(x, 0, 0, 1), std::invalid_argument);
  EXPECT_THROW(k::im2col(Tensor({2, 2}), 1, 0, 1), std::invalid_argument);
  EXPECT_THROW(k::col2im(Tensor({4, 5}), {1, 1, 2, 2}, 2, 0, 1), std::invalid_argument);
}

TEST(KernelsTest, RowMax) {
  Tensor a({2, 3}, {1, 5, 2, -1, -7, -2});
  const auto m = k::row_max(a);
  EXPECT_EQ(m.shape(), (Shape{2, 1}));
  EXPECT_FLOAT_EQ(m.at(0), 5.0f);
  EXPECT_FLOAT_EQ(m.at(1), -1.0f);
}

TEST(KernelsTest, OneHot) {
  const auto h = k::one_hot({2, 0}, 3);
  EXPECT_EQ(h.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(h.at(2), 1.0f);
  EXPECT_FLOAT_EQ(h.at(3), 1.0f);
  EXPECT_FLOAT_EQ(h.at(0), 0.0f);
  EXPECT_THROW(k::one_hot({3}, 3), std::invalid_argument);
}

TEST(KernelsTest, ArgmaxRows) {
  Tensor a({2, 3}, {1, 5, 2, 9, -7, -2});
  EXPECT_EQ(k::argmax_rows(a), (std::vector<int>{1, 0}));
}

}  // namespace
}  // namespace quickdrop
