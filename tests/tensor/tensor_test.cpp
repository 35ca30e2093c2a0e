#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

namespace quickdrop {
namespace {

TEST(TensorTest, DefaultIsScalarZero) {
  Tensor t;
  EXPECT_EQ(t.numel(), 1);
  EXPECT_FLOAT_EQ(t.item(), 0.0f);
}

TEST(TensorTest, ZeroInitialized) {
  Tensor t({2, 3});
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_FLOAT_EQ(t.at(i), 0.0f);
}

TEST(TensorTest, FromValuesChecksSize) {
  EXPECT_NO_THROW(Tensor({2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor({2, 2}, {1, 2, 3}), std::invalid_argument);
}

TEST(TensorTest, CopiesAliasStorage) {
  Tensor a({2});
  Tensor b = a;
  b.at(0) = 5.0f;
  EXPECT_FLOAT_EQ(a.at(0), 5.0f);
  EXPECT_TRUE(a.same_storage(b));
  EXPECT_EQ(b.data().data(), a.data().data());
}

TEST(TensorTest, CloneIsDeep) {
  Tensor a({2}, {1, 2});
  Tensor b = a.clone();
  b.at(0) = 9.0f;
  EXPECT_FLOAT_EQ(a.at(0), 1.0f);
  EXPECT_FALSE(a.same_storage(b));
  // Distinct empty tensors are distinct storage, too.
  EXPECT_FALSE(Tensor({0}).same_storage(Tensor({0})));
}

TEST(TensorTest, ReshapedSharesStorage) {
  Tensor a({2, 3}, {0, 1, 2, 3, 4, 5});
  Tensor b = a.reshaped({3, 2});
  EXPECT_TRUE(a.same_storage(b));
  EXPECT_EQ(b.data().data(), a.data().data());
  EXPECT_EQ(b.shape(), (Shape{3, 2}));
  EXPECT_THROW(a.reshaped({4}), std::invalid_argument);
}

TEST(TensorTest, InPlaceOps) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {10, 20, 30});
  a.add_(b, 0.5f);
  EXPECT_FLOAT_EQ(a.at(0), 6.0f);
  EXPECT_FLOAT_EQ(a.at(2), 18.0f);
  a.scale_(2.0f);
  EXPECT_FLOAT_EQ(a.at(0), 12.0f);
  a.copy_from(b);
  EXPECT_FLOAT_EQ(a.at(1), 20.0f);
}

TEST(TensorTest, InPlaceOpsRejectShapeMismatch) {
  Tensor a({3});
  Tensor b({4});
  EXPECT_THROW(a.add_(b), std::invalid_argument);
  EXPECT_THROW(a.copy_from(b), std::invalid_argument);
}

TEST(TensorTest, ItemRequiresSingleElement) {
  Tensor t({2});
  EXPECT_THROW(static_cast<void>(t.item()), std::logic_error);
}

TEST(TensorTest, Aggregates) {
  Tensor t({4}, {1, -2, 3, -4});
  EXPECT_FLOAT_EQ(t.sum(), -2.0f);
  EXPECT_FLOAT_EQ(t.mean(), -0.5f);
  EXPECT_FLOAT_EQ(t.max_abs(), 4.0f);
}

TEST(TensorTest, RandnHasRoughlyUnitVariance) {
  Rng rng(1);
  Tensor t = Tensor::randn({10000}, rng);
  double sum2 = 0;
  for (std::int64_t i = 0; i < t.numel(); ++i) sum2 += t.at(i) * t.at(i);
  EXPECT_NEAR(sum2 / static_cast<double>(t.numel()), 1.0, 0.1);
}

// ---- Storage: one shared array per tensor ----

/// Frees a few buffers of `n` floats filled with a NaN pattern, so the next
/// allocations of that size are likely to reuse dirty memory.
void dirty_heap(std::int64_t n) {
  std::vector<Tensor> junk;
  for (int i = 0; i < 4; ++i) {
    junk.push_back(Tensor::uninitialized({n}));
    junk.back().fill(std::numeric_limits<float>::quiet_NaN());
  }
}

bool all_equal(const Tensor& t, float v) {
  return std::all_of(t.data().begin(), t.data().end(), [v](float x) { return x == v; });
}

TEST(TensorStorageTest, ZeroAndFullFactoriesInitializeEveryElement) {
  for (const std::int64_t n : {1, 7, 1000, 70000}) {
    dirty_heap(n);
    EXPECT_TRUE(all_equal(Tensor({n}), 0.0f)) << n;
    dirty_heap(n);
    EXPECT_TRUE(all_equal(Tensor::zeros({n}), 0.0f)) << n;
    dirty_heap(n);
    EXPECT_TRUE(all_equal(Tensor::full({n}, -2.5f), -2.5f)) << n;
  }
  EXPECT_TRUE(all_equal(Tensor(), 0.0f));
}

TEST(TensorStorageTest, UninitializedHasItsShape) {
  const Tensor t = Tensor::uninitialized({3, 5});
  EXPECT_EQ(t.shape(), (Shape{3, 5}));
  EXPECT_EQ(t.numel(), 15);
  EXPECT_EQ(t.data().size(), 15u);
  EXPECT_EQ(Tensor::uninitialized({0, 4}).numel(), 0);
}

TEST(TensorStorageTest, AdoptsTheMovedVectorsBuffer) {
  std::vector<float> values(1000, 1.25f);
  const float* buffer = values.data();
  Tensor alias;
  {
    const Tensor t({10, 100}, std::move(values));
    EXPECT_EQ(t.data().data(), buffer);
    alias = t.reshaped({1000});
  }
  // The adopted buffer lives as long as any alias of it.
  EXPECT_EQ(alias.data().data(), buffer);
  EXPECT_FLOAT_EQ(alias.at(999), 1.25f);
}

}  // namespace
}  // namespace quickdrop
