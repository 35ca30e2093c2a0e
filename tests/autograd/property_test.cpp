// Parameterized property sweeps over the autograd engine: gradient checks
// across shapes and op combinations, and algebraic identities that must hold
// for any input.
#include <gtest/gtest.h>

#include <ostream>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"

namespace quickdrop::ag {
namespace {

Tensor filled(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t.at(i) = rng.uniform(-1.0f, 1.0f);
  return t;
}

// ---- Gradcheck across broadcast shape pairs ----

using ShapePair = std::pair<Shape, Shape>;

class BroadcastGradSweep : public ::testing::TestWithParam<ShapePair> {};

TEST_P(BroadcastGradSweep, MulThenSumGradchecks) {
  const auto& [sa, sb] = GetParam();
  const auto f = [](const std::vector<Var>& v) {
    return sum_all(square(mul(v[0], add_scalar(v[1], 2.0f))));
  };
  EXPECT_LT(max_gradient_error(f, {filled(sa, 1), filled(sb, 2)}), 2e-2);
}

TEST_P(BroadcastGradSweep, DivGradchecks) {
  const auto& [sa, sb] = GetParam();
  const auto f = [](const std::vector<Var>& v) {
    return sum_all(div(v[0], add_scalar(square(v[1]), 1.5f)));
  };
  EXPECT_LT(max_gradient_error(f, {filled(sa, 3), filled(sb, 4)}), 2e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastGradSweep,
    ::testing::Values(ShapePair{{2, 3}, {2, 3}}, ShapePair{{2, 3}, {3}},
                      ShapePair{{2, 3}, {2, 1}}, ShapePair{{2, 3}, {}},
                      ShapePair{{2, 1, 3}, {4, 1}}, ShapePair{{1, 5}, {4, 1}}));

// ---- Gradcheck across conv geometries ----

struct ConvCase {
  Shape input;
  int k, pad, stride;
};

// Names each case by its geometry, e.g. "1x1x4x4 k3 pad1 stride1". Without
// it gtest prints the raw bytes of the struct, heap address of the shape
// included, and the test names change from one run to the next.
void PrintTo(const ConvCase& c, std::ostream* os) {
  for (std::size_t i = 0; i < c.input.size(); ++i) *os << (i ? "x" : "") << c.input[i];
  *os << " k" << c.k << " pad" << c.pad << " stride" << c.stride;
}

class ConvGradSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGradSweep, Im2ColGradchecks) {
  const auto& c = GetParam();
  const auto f = [&](const std::vector<Var>& v) {
    return mean_all(square(im2col(v[0], c.k, c.pad, c.stride)));
  };
  EXPECT_LT(max_gradient_error(f, {filled(c.input, 7)}), 2e-2);
}

INSTANTIATE_TEST_SUITE_P(Geometries, ConvGradSweep,
                         ::testing::Values(ConvCase{{1, 1, 4, 4}, 3, 1, 1},
                                           ConvCase{{2, 2, 4, 4}, 2, 0, 1},
                                           ConvCase{{1, 1, 6, 6}, 3, 0, 2},
                                           ConvCase{{1, 3, 3, 3}, 3, 2, 1},
                                           ConvCase{{2, 1, 5, 5}, 1, 0, 1}));

// ---- Algebraic identities ----

TEST(AutogradIdentityTest, SumOfGradsOfSumIsOne) {
  // d(sum x)/dx == 1 elementwise, for any shape.
  for (const Shape& s : {Shape{3}, Shape{2, 4}, Shape{2, 2, 2}}) {
    const Var x = Var::leaf(filled(s, 11));
    const auto g = grad(sum_all(x), {x});
    for (std::int64_t i = 0; i < g[0].value().numel(); ++i) {
      EXPECT_FLOAT_EQ(g[0].value().at(i), 1.0f);
    }
  }
}

TEST(AutogradIdentityTest, LinearityOfGradient) {
  // grad(a*f + b*g) == a*grad(f) + b*grad(g).
  const Tensor x0 = filled({3, 3}, 13);
  auto gf = [&](float a, float b) {
    const Var x = Var::leaf(x0.clone());
    const Var f = sum_all(square(x));
    const Var g = sum_all(exp(mul_scalar(x, 0.3f)));
    const Var combined = add(mul_scalar(f, a), mul_scalar(g, b));
    return grad(combined, {x})[0].value();
  };
  const Tensor g10 = gf(1, 0), g01 = gf(0, 1), g23 = gf(2, 3);
  for (std::int64_t i = 0; i < x0.numel(); ++i) {
    EXPECT_NEAR(g23.at(i), 2.0f * g10.at(i) + 3.0f * g01.at(i), 1e-4f);
  }
}

TEST(AutogradIdentityTest, ChainThroughReshapePreservesGradient) {
  // Reshaping is a bijection on elements: gradients must match elementwise.
  const Tensor x0 = filled({2, 6}, 17);
  const Var x1 = Var::leaf(x0.clone());
  const auto g_flat = grad(sum_all(square(x1)), {x1})[0].value();
  const Var x2 = Var::leaf(x0.clone());
  const auto g_reshaped =
      grad(sum_all(square(reshape(x2, {3, 4}))), {x2})[0].value();
  for (std::int64_t i = 0; i < x0.numel(); ++i) {
    EXPECT_FLOAT_EQ(g_flat.at(i), g_reshaped.at(i));
  }
}

TEST(AutogradIdentityTest, HessianOfQuadraticIsConstant) {
  // f = 0.5*||x||^2 -> grad = x, hessian = I: second directional derivative
  // along r equals sum(r^2) regardless of x.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const Tensor x0 = filled({4}, seed);
    const Tensor r = filled({4}, seed + 100);
    const Var x = Var::leaf(x0.clone());
    const Var f = mul_scalar(sum_all(square(x)), 0.5f);
    const auto g = grad(f, {x}, {.create_graph = true});
    const Var dir = sum_all(mul(g[0], Var::constant(r)));
    const auto h = grad(dir, {x})[0].value();
    for (std::int64_t i = 0; i < 4; ++i) EXPECT_NEAR(h.at(i), r.at(i), 1e-5f);
  }
}

TEST(AutogradIdentityTest, SoftmaxGradRowsSumToZeroManyShapes) {
  for (const std::int64_t classes : {2, 5, 17}) {
    const Var logits = Var::leaf(filled({3, classes}, 29 + static_cast<std::uint64_t>(classes)));
    std::vector<int> labels = {0, static_cast<int>(classes) - 1, static_cast<int>(classes) / 2};
    const auto g = grad(cross_entropy(logits, labels), {logits})[0].value();
    for (int r = 0; r < 3; ++r) {
      float row = 0;
      for (std::int64_t c = 0; c < classes; ++c) row += g.at(r * classes + c);
      EXPECT_NEAR(row, 0.0f, 1e-6f);
    }
  }
}

TEST(AutogradIdentityTest, DetachedBranchContributesNothing) {
  const Tensor x0 = filled({3}, 31);
  const Var x = Var::leaf(x0.clone());
  const Var with_detached = add(sum_all(square(x)), sum_all(mul(x.detach(), x.detach())));
  const Var without = sum_all(square(x));
  const auto g1 = grad(with_detached, {x})[0].value();
  const auto g2 = grad(without, {x})[0].value();
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(g1.at(i), g2.at(i));
}

}  // namespace
}  // namespace quickdrop::ag
