#include <gtest/gtest.h>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "autograd/var.h"

namespace quickdrop::ag {
namespace {

Tensor seq_tensor(Shape shape, float start = 0.3f, float step = 0.17f) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t.at(i) = start + step * static_cast<float>(i % 13);
  return t;
}

TEST(AutogradTest, LeafAndConstantFlags) {
  const Var leaf = Var::leaf(Tensor::scalar(1.0f));
  const Var c = Var::constant(Tensor::scalar(1.0f));
  EXPECT_TRUE(leaf.requires_grad());
  EXPECT_FALSE(c.requires_grad());
  EXPECT_FALSE(leaf.detach().requires_grad());
}

TEST(AutogradTest, SimpleChainGradient) {
  // y = sum((2x + 1)^2), dy/dx = 2*(2x+1)*2
  const Var x = Var::leaf(Tensor({2}, {1.0f, -0.5f}));
  const Var y = sum_all(square(add_scalar(mul_scalar(x, 2.0f), 1.0f)));
  const auto g = grad(y, {x});
  EXPECT_NEAR(g[0].value().at(0), 12.0f, 1e-5f);
  EXPECT_NEAR(g[0].value().at(1), 0.0f, 1e-5f);
}

TEST(AutogradTest, GradOfUnrelatedInputIsZero) {
  const Var x = Var::leaf(Tensor::scalar(1.0f));
  const Var z = Var::leaf(Tensor({3}, {1, 2, 3}));
  const Var y = mul_scalar(x, 2.0f);
  const auto g = grad(y, {x, z});
  EXPECT_FLOAT_EQ(g[0].value().item(), 2.0f);
  EXPECT_EQ(g[1].value().shape(), (Shape{3}));
  EXPECT_FLOAT_EQ(g[1].value().at(0), 0.0f);
}

TEST(AutogradTest, NodeReusedTwiceAccumulates) {
  // y = sum(x*x + x) via reusing x twice.
  const Var x = Var::leaf(Tensor::scalar(3.0f));
  const Var y = add(mul(x, x), x);
  const auto g = grad(y, {x});
  EXPECT_FLOAT_EQ(g[0].value().item(), 7.0f);
}

TEST(AutogradTest, GradThroughConstantStops) {
  const Var x = Var::leaf(Tensor::scalar(2.0f));
  const Var y = mul(x.detach(), x);  // d/dx = detach(x) = 2
  const auto g = grad(y, {x});
  EXPECT_FLOAT_EQ(g[0].value().item(), 2.0f);
}

TEST(AutogradTest, GradRequiresScalarOutput) {
  const Var x = Var::leaf(Tensor({2}, {1, 2}));
  EXPECT_THROW(grad(mul_scalar(x, 2.0f), {x}), std::invalid_argument);
}

// ---- Numeric gradient checks per primitive ----

TEST(GradcheckTest, AddSubBroadcast) {
  const auto f = [](const std::vector<Var>& v) {
    return sum_all(square(sub(add(v[0], v[1]), v[2])));
  };
  const std::vector<Tensor> inputs = {seq_tensor({2, 3}), seq_tensor({3}, 0.1f),
                                      seq_tensor({2, 1}, -0.4f)};
  EXPECT_LT(max_gradient_error(f, inputs), 1e-2);
}

TEST(GradcheckTest, MulDivBroadcast) {
  const auto f = [](const std::vector<Var>& v) {
    return sum_all(div(mul(v[0], v[1]), add_scalar(square(v[2]), 1.0f)));
  };
  const std::vector<Tensor> inputs = {seq_tensor({2, 2}), seq_tensor({2}, 0.5f),
                                      seq_tensor({2, 2}, 1.0f)};
  EXPECT_LT(max_gradient_error(f, inputs), 1e-2);
}

TEST(GradcheckTest, ExpLogSqrt) {
  const auto f = [](const std::vector<Var>& v) {
    return sum_all(add(exp(mul_scalar(v[0], 0.3f)), add(log(add_scalar(v[0], 3.0f)),
                                                        sqrt(add_scalar(v[0], 4.0f)))));
  };
  EXPECT_LT(max_gradient_error(f, {seq_tensor({2, 3})}), 1e-2);
}

TEST(GradcheckTest, ReluAwayFromKink) {
  const auto f = [](const std::vector<Var>& v) { return sum_all(square(relu(v[0]))); };
  // Values far from 0 so finite differences do not straddle the kink.
  Tensor t({4}, {1.5f, -2.0f, 3.0f, -0.7f});
  EXPECT_LT(max_gradient_error(f, {t}, 1e-3f), 1e-2);
}

TEST(GradcheckTest, MatmulTranspose) {
  const auto f = [](const std::vector<Var>& v) {
    return sum_all(square(matmul_nt(v[0], v[1])));
  };
  EXPECT_LT(max_gradient_error(f, {seq_tensor({2, 3}), seq_tensor({4, 3}, -0.2f)}), 2e-2);
}

TEST(GradcheckTest, ReshapePermute) {
  const auto f = [](const std::vector<Var>& v) {
    const Var r = reshape(v[0], {3, 2, 2});
    return sum_all(square(permute(r, {2, 0, 1})));
  };
  EXPECT_LT(max_gradient_error(f, {seq_tensor({2, 6})}), 1e-2);
}

TEST(GradcheckTest, ReduceBroadcast) {
  const auto f = [](const std::vector<Var>& v) {
    const Var r = reduce_sum_to(v[0], {2, 1});
    return sum_all(square(broadcast_to(r, {2, 5})));
  };
  EXPECT_LT(max_gradient_error(f, {seq_tensor({2, 5})}), 2e-2);
}

TEST(GradcheckTest, Im2ColCol2Im) {
  const auto f = [](const std::vector<Var>& v) {
    const Var cols = im2col(v[0], 3, 1, 1);
    return sum_all(square(cols));
  };
  EXPECT_LT(max_gradient_error(f, {seq_tensor({1, 2, 4, 4})}), 2e-2);
}

TEST(GradcheckTest, ConvViaIm2ColMatmul) {
  const auto f = [](const std::vector<Var>& v) {
    const Var cols = im2col(v[0], 3, 1, 1);     // [C*9, N*H*W]
    const Var out = matmul(v[1], cols);         // [F, N*H*W]
    return mean_all(square(out));
  };
  EXPECT_LT(max_gradient_error(f, {seq_tensor({1, 2, 3, 3}), seq_tensor({2, 18}, -0.1f, 0.07f)}),
            1e-2);
}

TEST(GradcheckTest, LogSoftmaxCrossEntropy) {
  const auto f = [](const std::vector<Var>& v) { return cross_entropy(v[0], {1, 0, 2}); };
  EXPECT_LT(max_gradient_error(f, {seq_tensor({3, 4}, -0.5f, 0.3f)}), 1e-2);
}

TEST(GradcheckTest, CrossEntropyGradSumsToZeroPerRow) {
  // d(CE)/dlogits = (softmax - onehot)/N: rows sum to zero.
  const Var logits = Var::leaf(seq_tensor({2, 5}, -1.0f, 0.4f));
  const Var loss = cross_entropy(logits, {3, 1});
  const auto g = grad(loss, {logits});
  for (int r = 0; r < 2; ++r) {
    float row = 0;
    for (int c = 0; c < 5; ++c) row += g[0].value().at(r * 5 + c);
    EXPECT_NEAR(row, 0.0f, 1e-6f);
  }
}

// ---- Second-order (grad-of-grad) checks: the property QuickDrop's
// gradient-matching distillation depends on. ----

TEST(SecondOrderTest, Polynomial) {
  const auto f = [](const std::vector<Var>& v) { return sum_all(mul(square(v[0]), v[0])); };
  EXPECT_LT(max_second_order_error(f, {seq_tensor({3}, 0.4f)}), 2e-2);
}

TEST(SecondOrderTest, ExpDivChain) {
  const auto f = [](const std::vector<Var>& v) {
    return sum_all(div(exp(mul_scalar(v[0], 0.5f)), add_scalar(square(v[0]), 2.0f)));
  };
  EXPECT_LT(max_second_order_error(f, {seq_tensor({2, 2})}), 2e-2);
}

TEST(SecondOrderTest, MatmulBilinear) {
  const auto f = [](const std::vector<Var>& v) {
    return sum_all(square(matmul(v[0], v[1])));
  };
  EXPECT_LT(max_second_order_error(f, {seq_tensor({2, 3}), seq_tensor({3, 2}, -0.3f)}), 5e-2);
}

TEST(SecondOrderTest, MatmulNtBilinear) {
  // Linear's product: x W^T. Its VJPs are matmul and matmul_tn, whose own
  // VJPs close the set, so the second order exercises all three.
  const auto f = [](const std::vector<Var>& v) {
    return sum_all(square(matmul_nt(v[0], v[1])));
  };
  EXPECT_LT(max_second_order_error(f, {seq_tensor({2, 3}), seq_tensor({4, 3}, -0.3f)}), 5e-2);
}

TEST(SecondOrderTest, MatmulTnBilinear) {
  // Conv2d's column gradient: W^T gy.
  const auto f = [](const std::vector<Var>& v) {
    return sum_all(square(matmul_tn(v[0], v[1])));
  };
  EXPECT_LT(max_second_order_error(f, {seq_tensor({3, 2}), seq_tensor({3, 4}, -0.3f)}), 5e-2);
}

TEST(SecondOrderTest, PoolPair) {
  // Cubic, so the second order runs both VJPs of the adjoint pair.
  const auto f = [](const std::vector<Var>& v) {
    return sum_all(mul(square(v[0]), spread_pool2d(sum_pool2d(v[0], 2), 2)));
  };
  EXPECT_LT(max_second_order_error(f, {seq_tensor({1, 2, 4, 4}, 0.1f, 0.05f)}), 5e-2);
}

TEST(SecondOrderTest, ThroughIm2ColConv) {
  const auto f = [](const std::vector<Var>& v) {
    const Var cols = im2col(v[0], 2, 0, 1);
    const Var out = matmul(v[1], cols);
    return mean_all(square(out));
  };
  EXPECT_LT(max_second_order_error(f, {seq_tensor({1, 1, 3, 3}), seq_tensor({2, 4}, -0.2f)}),
            2e-2);
}

TEST(SecondOrderTest, GradientMatchingShapedObjective) {
  // Mimics distillation: L(s) = || dLoss(w, s)/dw - g_target ||^2 where
  // Loss = mean(square(matmul(s, w))). Checks d L / d s numerically.
  Tensor w_val = seq_tensor({3, 2}, 0.2f, 0.11f);
  Tensor g_target = seq_tensor({3, 2}, -0.1f, 0.05f);
  const auto f = [&](const std::vector<Var>& v) {
    const Var w = Var::leaf(w_val.clone());
    const Var loss = mean_all(square(matmul(v[0], w)));
    const auto gw = grad(loss, {w}, {.create_graph = true});
    return sum_all(square(sub(gw[0], Var::constant(g_target))));
  };
  EXPECT_LT(max_gradient_error(f, {seq_tensor({2, 3}, 0.3f)}), 2e-2);
}

TEST(AutogradTest, CreateGraphFalseDetachesResult) {
  const Var x = Var::leaf(Tensor::scalar(2.0f));
  const Var y = mul(x, x);
  const auto g = grad(y, {x});
  EXPECT_FALSE(g[0].requires_grad());
  const auto g2 = grad(y, {x}, {.create_graph = true});
  EXPECT_TRUE(g2[0].requires_grad());
}

TEST(AutogradTest, SecondDerivativeExact) {
  // y = x^3, dy/dx = 3x^2, d2y/dx2 = 6x.
  const Var x = Var::leaf(Tensor::scalar(2.0f));
  const Var y = mul(mul(x, x), x);
  const auto g1 = grad(y, {x}, {.create_graph = true});
  const auto g2 = grad(sum_all(g1[0]), {x});
  EXPECT_NEAR(g2[0].value().item(), 12.0f, 1e-4f);
}

TEST(AutogradTest, ThirdDerivativeExact) {
  // y = x^4: y''' = 24x.
  const Var x = Var::leaf(Tensor::scalar(1.5f));
  const Var x2 = mul(x, x);
  const Var y = mul(x2, x2);
  const auto g1 = grad(y, {x}, {.create_graph = true});
  const auto g2 = grad(sum_all(g1[0]), {x}, {.create_graph = true});
  const auto g3 = grad(sum_all(g2[0]), {x});
  EXPECT_NEAR(g3[0].value().item(), 36.0f, 1e-3f);
}

TEST(AutogradTest, DeepChainDoesNotOverflowStack) {
  Var x = Var::leaf(Tensor::scalar(1.0f));
  Var y = x;
  for (int i = 0; i < 20000; ++i) y = add_scalar(y, 0.0f);
  const auto g = grad(sum_all(y), {x});
  EXPECT_FLOAT_EQ(g[0].value().item(), 1.0f);
}

}  // namespace
}  // namespace quickdrop::ag
