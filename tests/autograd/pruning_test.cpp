// The pruned backward: grad() visits only nodes that depend on a requested
// input and asks each VJP only for the parent terms that lead to one. Every
// gradient it does return must carry the same bits as an unpruned backward
// that also asks for the other inputs, and no VJP may be asked for more.

#include <gtest/gtest.h>

#include <cstring>
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

/// One gradient-matching step of in-situ distillation on a small ConvNet:
/// synthetic pixels -> parameter gradients (with graph) -> matching distance.
struct DistillStep {
  std::unique_ptr<nn::Sequential> net;
  std::vector<Var> params;
  Var pixels;
  Var loss;
  std::vector<Tensor> grad_real;

  DistillStep() {
    Rng rng(7);
    nn::ConvNetConfig cfg;
    cfg.in_channels = 3;
    cfg.image_size = 8;
    cfg.width = 8;
    cfg.depth = 2;
    net = nn::make_convnet(cfg, rng);
    params = net->parameters();
    const Tensor real = Tensor::randn({6, 3, 8, 8}, rng);
    const auto real_grads = grad(cross_entropy(net->forward_tensor(real), std::vector<int>(6, 2)),
                                 std::span<const Var>(params));
    for (const auto& g : real_grads) grad_real.push_back(g.value());
    pixels = Var::leaf(Tensor::randn({2, 3, 8, 8}, rng));
    loss = cross_entropy(net->forward(pixels), std::vector<int>(2, 2));
  }

  /// `params` followed by the pixel leaf.
  [[nodiscard]] std::vector<Var> params_and_pixels() const {
    std::vector<Var> all = params;
    all.push_back(pixels);
    return all;
  }
};

void check_distill_step_pruning(int threads) {
  const PoolScope pool(threads);
  const DistillStep step;
  const auto all = step.params_and_pixels();

  // Inner backward: asking for the parameters alone prunes conv1's col2im
  // toward the pixels; the parameter gradients must not change.
  const auto grad_synth =
      grad(step.loss, std::span<const Var>(step.params), {.create_graph = true});
  const auto grad_all = grad(step.loss, std::span<const Var>(all), {.create_graph = true});
  for (std::size_t i = 0; i < step.params.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(grad_synth[i].value(), grad_all[i].value())) << "parameter " << i;
  }

  // Outer backward: the pixel gradient of the matching distance, alone and
  // next to every parameter, first-order and with graph.
  const Var dist = core::matching_distance(grad_synth, step.grad_real);
  for (const bool create_graph : {false, true}) {
    const auto pruned = grad(dist, {step.pixels}, {.create_graph = create_graph});
    const auto full = grad(dist, std::span<const Var>(all), {.create_graph = create_graph});
    EXPECT_GT(pruned[0].value().max_abs(), 0.0f);
    EXPECT_TRUE(bitwise_equal(pruned[0].value(), full.back().value()))
        << "create_graph=" << create_graph;
  }
}

TEST(GradPruningTest, DistillPixelGradientMatchesUnprunedOneThread) {
  check_distill_step_pruning(1);
}

TEST(GradPruningTest, DistillPixelGradientMatchesUnprunedFourThreads) {
  check_distill_step_pruning(4);
}

/// A test-local binary op, y = a * b elementwise, whose VJP records every
/// call and fails the test when it is asked for a parent outside `allowed`
/// or for no parent at all.
struct Probe {
  unsigned allowed = 0;
  int calls = 0;
  std::vector<unsigned> needs;

  Var apply(const Var& a, const Var& b) {
    return Var::make_op("probe", kernels::mul(a.value(), b.value()), {a, b},
                        [this](const detail::Node& n, const Var& gy, unsigned need,
                               ParentGrads& out) {
                          ++calls;
                          needs.push_back(need);
                          EXPECT_NE(need, 0u) << "VJP invoked with no parent needed";
                          EXPECT_EQ(need & ~allowed, 0u) << "VJP asked for an unrequested parent";
                          const auto& [x, y] = n.parents;
                          if (need & 1u) out[0] = mul(gy, y);
                          if (need & 2u) out[1] = mul(gy, x);
                        });
  }
};

TEST(GradPruningTest, VjpIsAskedOnlyForRequestedParents) {
  const Var a = Var::leaf(Tensor({3}, {1.0f, 2.0f, 3.0f}));
  const Var b = Var::leaf(Tensor({3}, {0.5f, -1.0f, 4.0f}));
  for (const unsigned want : {1u, 2u, 3u}) {
    Probe probe;
    probe.allowed = want;
    const Var y = sum_all(probe.apply(a, b));
    std::vector<Var> inputs;
    if (want & 1u) inputs.push_back(a);
    if (want & 2u) inputs.push_back(b);
    const auto g = grad(y, std::span<const Var>(inputs));
    ASSERT_EQ(probe.calls, 1);
    EXPECT_EQ(probe.needs[0], want);
    ASSERT_EQ(g.size(), inputs.size());
    // d/da = b, d/db = a.
    EXPECT_TRUE(bitwise_equal(g[0].value(), (want & 1u) ? b.value() : a.value()));
  }
}

TEST(GradPruningTest, VjpIsSkippedWhenNoParentIsNeeded) {
  const Var a = Var::leaf(Tensor({2}, {1.0f, 2.0f}));
  const Var b = Var::leaf(Tensor({2}, {3.0f, 4.0f}));
  const Var x = Var::leaf(Tensor({2}, {5.0f, 6.0f}));
  Probe probe;
  // The probe's output feeds the loss, but neither of its parents leads to
  // the one requested input.
  const Var y = sum_all(mul(probe.apply(a, b), x));
  const auto g = grad(y, {x});
  EXPECT_EQ(probe.calls, 0);
  EXPECT_FLOAT_EQ(g[0].value().at(0), 3.0f);  // d/dx = a * b
  EXPECT_FLOAT_EQ(g[0].value().at(1), 8.0f);
}

TEST(GradPruningTest, IntermediateInputStopsAtItsOwnParents) {
  // Requesting an op node: its gradient is complete, and its VJP is never
  // asked for the leaves below it.
  const Var a = Var::leaf(Tensor({2}, {1.0f, 2.0f}));
  const Var b = Var::leaf(Tensor({2}, {3.0f, 4.0f}));
  Probe probe;
  const Var h = probe.apply(a, b);
  const Var y = sum_all(mul(h, h));
  const auto g = grad(y, {h});
  EXPECT_EQ(probe.calls, 0);
  EXPECT_FLOAT_EQ(g[0].value().at(0), 6.0f);  // d/dh = 2h = 2ab
  EXPECT_FLOAT_EQ(g[0].value().at(1), 16.0f);
}

}  // namespace
}  // namespace quickdrop::ag
