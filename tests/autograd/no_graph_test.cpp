// The no-graph contract: under a NoGraphScope every op is a constant node,
// and a first-order grad() runs its sweep under one. The gradients it
// returns must carry the bits of the create-graph sweep, require no grad,
// and keep nothing of the forward graph alive.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "autograd/ops.h"
#include "autograd/var.h"
#include "core/distillation.h"
#include "nn/convnet.h"
#include "tensor/kernels.h"
#include "util/thread_pool.h"

namespace quickdrop::ag {
namespace {

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Pins the global pool size for one test, restoring it afterwards.
struct PoolScope {
  int saved = num_threads();
  explicit PoolScope(int threads) { set_num_threads(threads); }
  ~PoolScope() { set_num_threads(saved); }
};

std::unique_ptr<nn::Sequential> small_convnet() {
  Rng rng(11);
  nn::ConvNetConfig cfg;
  cfg.in_channels = 3;
  cfg.image_size = 8;
  cfg.width = 8;
  cfg.depth = 2;
  return nn::make_convnet(cfg, rng);
}

/// Both sweeps of `output` over `inputs`: the first-order one must match the
/// create-graph one bit for bit and return constants.
void expect_first_order_matches(const Var& output, const std::vector<Var>& inputs) {
  const auto plain = grad(output, std::span<const Var>(inputs));
  const auto with_graph = grad(output, std::span<const Var>(inputs), {.create_graph = true});
  ASSERT_EQ(plain.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(plain[i].value(), with_graph[i].value())) << "input " << i;
    EXPECT_FALSE(plain[i].requires_grad()) << "input " << i;
    EXPECT_EQ(plain[i].node()->arity, 0) << "input " << i;
  }
}

void check_convnet_step(int threads) {
  const PoolScope pool(threads);
  const auto net = small_convnet();
  Rng rng(3);
  const Var loss = cross_entropy(net->forward_tensor(Tensor::randn({6, 3, 8, 8}, rng)),
                                 std::vector<int>{0, 1, 2, 3, 4, 5});
  expect_first_order_matches(loss, net->parameters());
}

void check_distill_pixel_step(int threads) {
  const PoolScope pool(threads);
  const auto net = small_convnet();
  const auto params = net->parameters();
  Rng rng(5);
  std::vector<Tensor> grad_real;
  for (const auto& g : grad(cross_entropy(net->forward_tensor(Tensor::randn({6, 3, 8, 8}, rng)),
                                          std::vector<int>(6, 2)),
                            std::span<const Var>(params))) {
    grad_real.push_back(g.value());
  }
  const Var pixels = Var::leaf(Tensor::randn({2, 3, 8, 8}, rng));
  const Var loss = cross_entropy(net->forward(pixels), std::vector<int>(2, 2));
  const auto grad_synth = grad(loss, std::span<const Var>(params), {.create_graph = true});
  const Var dist = core::matching_distance(grad_synth, grad_real);
  expect_first_order_matches(dist, {pixels});
}

TEST(NoGraphTest, ConvNetStepMatchesCreateGraphOneThread) { check_convnet_step(1); }

TEST(NoGraphTest, ConvNetStepMatchesCreateGraphFourThreads) { check_convnet_step(4); }

TEST(NoGraphTest, DistillPixelStepMatchesCreateGraphOneThread) { check_distill_pixel_step(1); }

TEST(NoGraphTest, DistillPixelStepMatchesCreateGraphFourThreads) { check_distill_pixel_step(4); }

TEST(NoGraphTest, ForwardIntermediatesDieWithTheirHandles) {
  const Var w = Var::leaf(Tensor({2, 2}, {1.0f, -2.0f, 0.5f, 3.0f}));
  const Var x = Var::constant(Tensor({3, 2}, {1.0f, 2.0f, -1.0f, 0.0f, 4.0f, 1.0f}));
  std::weak_ptr<detail::Node> hidden_node;
  std::vector<Var> grads;
  {
    const Var hidden = relu(matmul(x, w));
    hidden_node = hidden.node();
    const Var loss = sum_all(mul(hidden, hidden));
    grads = grad(loss, {w});
  }
  EXPECT_TRUE(hidden_node.expired());
  ASSERT_EQ(grads.size(), 1u);
  EXPECT_GT(grads[0].value().max_abs(), 0.0f);
}

TEST(NoGraphTest, SweepDropsEachGradientOnceItsVjpHasRun) {
  // x -> o1 -> o2 -> o3 -> sum. The sweep runs o3's, o2's, then o1's VJP.
  // The gradient o2's VJP receives must be gone by the time o1's runs.
  struct Probe {
    int calls = 0;
    std::weak_ptr<detail::Node> seen_by_o2;
    bool expired_at_o1 = false;
  } probe;
  const auto twice = [&probe](const Var& x) {
    return Var::make_op("twice", kernels::mul_scalar(x.value(), 2.0f), {x},
                        [&probe](const detail::Node&, const Var& gy, unsigned, ParentGrads& out) {
                          if (probe.calls == 1) probe.seen_by_o2 = gy.node();
                          if (probe.calls == 2) probe.expired_at_o1 = probe.seen_by_o2.expired();
                          ++probe.calls;
                          out[0] = mul_scalar(gy, 2.0f);
                        });
  };
  const Var x = Var::leaf(Tensor({2}, {1.0f, -1.0f}));
  const auto g = grad(sum_all(twice(twice(twice(x)))), {x});
  ASSERT_EQ(probe.calls, 3);
  EXPECT_TRUE(probe.expired_at_o1);
  EXPECT_TRUE(bitwise_equal(g[0].value(), Tensor({2}, {8.0f, 8.0f})));
}

TEST(NoGraphTest, OpsInsideAScopeAreConstants) {
  const Var a = Var::leaf(Tensor({3}, {1.0f, -2.0f, 3.0f}));
  std::weak_ptr<detail::Node> product_node;
  Var y;
  {
    const NoGraphScope no_graph;
    const Var product = mul(a, a);
    product_node = product.node();
    y = relu(product);
  }
  EXPECT_FALSE(y.requires_grad());
  EXPECT_EQ(y.node()->arity, 0);
  EXPECT_FALSE(static_cast<bool>(y.node()->vjp));
  EXPECT_TRUE(product_node.expired());  // y holds no parent
  EXPECT_TRUE(bitwise_equal(y.value(), Tensor({3}, {1.0f, 4.0f, 9.0f})));
  // Outside the scope the same op records its graph again.
  EXPECT_TRUE(mul(a, a).requires_grad());
}

TEST(NoGraphTest, ScopesNestAndRestoreAfterAnException) {
  EXPECT_FALSE(NoGraphScope::active());
  {
    const NoGraphScope outer;
    {
      const NoGraphScope inner;
      EXPECT_TRUE(NoGraphScope::active());
    }
    EXPECT_TRUE(NoGraphScope::active());  // the inner scope restores, not clears
  }
  EXPECT_FALSE(NoGraphScope::active());
  EXPECT_THROW(
      {
        const NoGraphScope scope;
        throw std::runtime_error("unwind");
      },
      std::runtime_error);
  EXPECT_FALSE(NoGraphScope::active());
  // A first-order grad() leaves the caller's state as it found it, inside a
  // scope and out of one.
  const Var a = Var::leaf(Tensor({2}, {1.0f, 2.0f}));
  (void)grad(sum_all(mul(a, a)), {a});
  EXPECT_FALSE(NoGraphScope::active());
  const Var loss = sum_all(mul(a, a));
  const NoGraphScope scope;
  const auto g = grad(loss, {a});
  EXPECT_TRUE(NoGraphScope::active());
  EXPECT_TRUE(bitwise_equal(g[0].value(), Tensor({2}, {2.0f, 4.0f})));
}

TEST(NoGraphTest, CreateGraphInsideAScopeThrows) {
  const Var a = Var::leaf(Tensor({2}, {1.0f, 2.0f}));
  const Var loss = sum_all(mul(a, a));
  const NoGraphScope no_graph;
  EXPECT_THROW((void)grad(loss, {a}, {.create_graph = true}), std::logic_error);
}

}  // namespace
}  // namespace quickdrop::ag
