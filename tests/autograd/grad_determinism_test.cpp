// Regression tests for the audit of the pointer-keyed gradient map in
// src/autograd/var.cpp (ISSUE 3, satellite 1).
//
// grad() looks graph nodes up in a pointer-keyed std::unordered_map, whose
// *iteration* order would vary run to run with pointer hashes. The
// implementation must therefore only ever use the map for lookups
// (find/count/emplace) and drive accumulation by the deterministic
// topological order of the graph — the qdlint det-unordered-iter rule
// enforces the "no iteration" half statically; these tests pin the observable
// half: gradients are bitwise identical across repeated backward passes even
// though every fresh graph allocation shuffles the pointer keys' hash
// placement.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "autograd/var.h"

namespace quickdrop::ag {
namespace {

Tensor filled(Shape shape, float start, float step) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.at(i) = start + step * static_cast<float>(i % 17);
  }
  return t;
}

/// A graph with heavy fan-out: `x` and the shared hidden node feed several
/// consumers, so backward accumulates multiple vjp contributions per node —
/// exactly the path whose order an unordered-map sweep would scramble.
Var build_fanout_graph(const Var& x, const Var& w) {
  const Var h = matmul(x, w);          // shared by three consumers
  const Var a = mul(h, h);
  const Var b = add(h, relu(h));
  const Var c = mul(h, add_scalar(matmul(x, w), 0.25f));
  return sum_all(add(add(a, b), c));
}

std::vector<Tensor> run_backward(const Tensor& xv, const Tensor& wv) {
  const Var x = Var::leaf(xv.clone());
  const Var w = Var::leaf(wv.clone());
  const Var loss = build_fanout_graph(x, w);
  const auto g = grad(loss, {x, w});
  return {g[0].value().clone(), g[1].value().clone()};
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data().data(), b.data().data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(GradDeterminismTest, RepeatedBackwardIsBitwiseIdentical) {
  const Tensor xv = filled({4, 6}, 0.3f, 0.17f);
  const Tensor wv = filled({6, 6}, -0.9f, 0.071f);

  const auto first = run_backward(xv, wv);
  // Each iteration rebuilds the graph from scratch: node allocations land at
  // different addresses, so the unordered map's bucket placement differs
  // while the topological accumulation order must not.
  for (int rep = 0; rep < 10; ++rep) {
    // Perturb the allocator between runs so fresh nodes get fresh addresses.
    std::vector<std::unique_ptr<int>> churn;
    for (int i = 0; i < (rep + 1) * 7; ++i) churn.push_back(std::make_unique<int>(i));

    const auto again = run_backward(xv, wv);
    ASSERT_EQ(again.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(first[i], again[i]))
          << "gradient " << i << " diverged on repetition " << rep;
    }
  }
}

TEST(GradDeterminismTest, DiamondAccumulationIsBitwiseStable) {
  // Narrow diamond: y = sum(h*h + h) with h shared; the vjp contributions to
  // h must always combine in the same order.
  auto run = [] {
    const Var x = Var::leaf(filled({3, 3}, 1.25f, 0.5f));
    const Var h = mul_scalar(x, 0.75f);
    const Var y = sum_all(add(mul(h, h), h));
    return grad(y, {x})[0].value().clone();
  };
  const Tensor first = run();
  for (int rep = 0; rep < 10; ++rep) {
    EXPECT_TRUE(bitwise_equal(first, run())) << "repetition " << rep;
  }
}

}  // namespace
}  // namespace quickdrop::ag
