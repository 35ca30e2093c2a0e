// google-benchmark microbenchmarks of the substrate: tensor kernels, autograd
// forward/backward, one distillation matching step and one SGA round — the
// unit costs behind every table. The *Threads benchmarks sweep the global
// pool size (1/2/4/hardware) for the parallelized kernels; results land in
// BENCH_micro_ops.json (see main below) for machine consumption.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "core/distillation.h"
#include "data/synthetic.h"
#include "fl/client_update.h"
#include "nn/convnet.h"
#include "tensor/kernels.h"
#include "tensor/simd.h"
#include "util/thread_pool.h"

namespace qd = quickdrop;
namespace k = quickdrop::kernels;

namespace {

// Thread counts to sweep: 1/2/4 plus the hardware default, deduplicated.
std::vector<std::int64_t> thread_sweep() {
  std::vector<std::int64_t> counts{1, 2, 4};
  const auto hw = static_cast<std::int64_t>(std::max(1u, std::thread::hardware_concurrency()));
  if (std::find(counts.begin(), counts.end(), hw) == counts.end()) counts.push_back(hw);
  return counts;
}

void thread_args(benchmark::internal::Benchmark* b) {
  for (const auto t : thread_sweep()) b->Arg(t);
}

// Pins the pool to `threads` for one benchmark run, restoring on scope exit
// so the sweep order can't leak into other benchmarks.
struct PoolScope {
  int saved = qd::num_threads();
  explicit PoolScope(std::int64_t threads) { qd::set_num_threads(static_cast<int>(threads)); }
  ~PoolScope() { qd::set_num_threads(saved); }
};

void BM_MatMul(benchmark::State& state) {
  const auto n = state.range(0);
  qd::Rng rng(1);
  const auto a = qd::Tensor::randn({n, n}, rng);
  const auto b = qd::Tensor::randn({n, n}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(k::matmul(a, b));
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

void BM_Im2Col(benchmark::State& state) {
  qd::Rng rng(1);
  const auto x = qd::Tensor::randn({8, 16, 12, 12}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(k::im2col(x, 3, 1, 1));
}
BENCHMARK(BM_Im2Col);

void BM_BroadcastAdd(benchmark::State& state) {
  qd::Rng rng(1);
  const auto a = qd::Tensor::randn({64, 16, 12, 12}, rng);
  const auto b = qd::Tensor::randn({1, 16, 1, 1}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(k::add(a, b));
}
BENCHMARK(BM_BroadcastAdd);

// --- The ConvNet's own kernel shapes (width 16, 12x12 images, batch m):
// --- the broadcasts, reductions and unfolds autograd runs on every
// --- forward/backward of the distillation loop.

void BM_InstanceNormSub(benchmark::State& state) {
  const auto m = state.range(0);
  qd::Rng rng(1);
  const auto x = qd::Tensor::randn({m, 16, 12, 12}, rng);
  const auto mean = qd::Tensor::randn({m, 16, 1, 1}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(k::sub(x, mean));
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_InstanceNormSub)->Arg(32);

void BM_InstanceNormMul(benchmark::State& state) {
  const auto m = state.range(0);
  qd::Rng rng(1);
  const auto x = qd::Tensor::randn({m, 16, 12, 12}, rng);
  const auto inv_std = qd::Tensor::randn({m, 16, 1, 1}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(k::mul(x, inv_std));
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_InstanceNormMul)->Arg(32);

void BM_InstanceNormReduce(benchmark::State& state) {
  const auto m = state.range(0);
  qd::Rng rng(1);
  const auto x = qd::Tensor::randn({m, 16, 12, 12}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(k::reduce_sum_to(x, {m, 16, 1, 1}));
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_InstanceNormReduce)->Arg(32);

void BM_ConvBiasReduce(benchmark::State& state) {
  const auto m = state.range(0);
  qd::Rng rng(1);
  const auto x = qd::Tensor::randn({m, 16, 12, 12}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(k::reduce_sum_to(x, {1, 16, 1, 1}));
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_ConvBiasReduce)->Arg(32);

void BM_Im2ColConvNet(benchmark::State& state) {
  const auto m = state.range(0);
  qd::Rng rng(1);
  const auto x = qd::Tensor::randn({m, 3, 12, 12}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(k::im2col(x, 3, 1, 1));
  state.SetItemsProcessed(state.iterations() * 27 * m * 144);
}
BENCHMARK(BM_Im2ColConvNet)->Arg(32);

void BM_Col2ImConvNet(benchmark::State& state) {
  const auto m = state.range(0);
  qd::Rng rng(1);
  const auto cols = qd::Tensor::randn({27, m * 144}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(k::col2im(cols, {m, 3, 12, 12}, 3, 1, 1));
  state.SetItemsProcessed(state.iterations() * cols.numel());
}
BENCHMARK(BM_Col2ImConvNet)->Arg(32);

// --- The memory-bound kernels on the perfbench fixture's shapes (batch 10,
// --- width 16, 12x12 images, so 6x6 after the first pool): args are
// --- {n, c, h} for [n,c,h,h] images.

void BM_BroadcastNorm(benchmark::State& state) {
  // InstanceNorm's statistics spread back over the image: [n,c,1,1] -> [n,c,h,h].
  const auto n = state.range(0), c = state.range(1), h = state.range(2);
  qd::Rng rng(1);
  const auto s = qd::Tensor::randn({n, c, 1, 1}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(k::broadcast_to(s, {n, c, h, h}));
  state.SetItemsProcessed(state.iterations() * n * c * h * h);
}
BENCHMARK(BM_BroadcastNorm)->ArgNames({"n", "c", "h"})->Args({10, 16, 12})->Args({10, 16, 6});

void BM_ReduceNorm(benchmark::State& state) {
  // Its adjoint, and the statistics themselves: [n,c,h,h] -> [n,c,1,1].
  const auto n = state.range(0), c = state.range(1), h = state.range(2);
  qd::Rng rng(1);
  const auto x = qd::Tensor::randn({n, c, h, h}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(k::reduce_sum_to(x, {n, c, 1, 1}));
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_ReduceNorm)->ArgNames({"n", "c", "h"})->Args({10, 16, 12})->Args({10, 16, 6});

void BM_Im2ColFixture(benchmark::State& state) {
  const auto n = state.range(0), c = state.range(1), h = state.range(2);
  qd::Rng rng(1);
  const auto x = qd::Tensor::randn({n, c, h, h}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(k::im2col(x, 3, 1, 1));
  state.SetItemsProcessed(state.iterations() * 9 * x.numel());
}
BENCHMARK(BM_Im2ColFixture)->ArgNames({"n", "c", "h"})->Args({10, 3, 12})->Args({10, 16, 6});

void BM_Col2ImFixture(benchmark::State& state) {
  const auto n = state.range(0), c = state.range(1), h = state.range(2);
  qd::Rng rng(1);
  const auto cols = qd::Tensor::randn({c * 9, n * h * h}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(k::col2im(cols, {n, c, h, h}, 3, 1, 1));
  state.SetItemsProcessed(state.iterations() * cols.numel());
}
BENCHMARK(BM_Col2ImFixture)->ArgNames({"n", "c", "h"})->Args({10, 3, 12})->Args({10, 16, 6});

void BM_SumPool2dFixture(benchmark::State& state) {
  const auto n = state.range(0), c = state.range(1), h = state.range(2);
  qd::Rng rng(1);
  const auto x = qd::Tensor::randn({n, c, h, h}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(k::sum_pool2d(x, 2));
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_SumPool2dFixture)->ArgNames({"n", "c", "h"})->Args({10, 16, 12})->Args({10, 16, 6});

void BM_SpreadPool2dFixture(benchmark::State& state) {
  // h is the pooled input's side; the output is [n,c,2h,2h].
  const auto n = state.range(0), c = state.range(1), h = state.range(2);
  qd::Rng rng(1);
  const auto g = qd::Tensor::randn({n, c, h, h}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(k::spread_pool2d(g, 2));
  state.SetItemsProcessed(state.iterations() * g.numel() * 4);
}
BENCHMARK(BM_SpreadPool2dFixture)->ArgNames({"n", "c", "h"})->Args({10, 16, 6})->Args({10, 16, 3});

void BM_SqrtFixture(benchmark::State& state) {
  const auto n = state.range(0), c = state.range(1), h = state.range(2);
  qd::Rng rng(1);
  const auto x = k::relu(qd::Tensor::randn({n, c, h, h}, rng));
  for (auto _ : state) benchmark::DoNotOptimize(k::sqrt(x));
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_SqrtFixture)->ArgNames({"n", "c", "h"})->Args({10, 16, 12});

void BM_FullFixture(benchmark::State& state) {
  const auto n = state.range(0), c = state.range(1), h = state.range(2);
  for (auto _ : state) benchmark::DoNotOptimize(qd::Tensor::full({n, c, h, h}, 0.5f));
  state.SetItemsProcessed(state.iterations() * n * c * h * h);
}
BENCHMARK(BM_FullFixture)->ArgNames({"n", "c", "h"})->Args({10, 16, 12});

qd::nn::ConvNetConfig bench_net() {
  qd::nn::ConvNetConfig cfg;
  cfg.in_channels = 3;
  cfg.image_size = 12;
  cfg.width = 16;
  cfg.depth = 2;
  return cfg;
}

// --- The ConvNet at CIFAR-10's 32x32 images (width 16, batch 12; the
// --- perfbench cifar10 fixture itself uses 12x12): each product with the
// --- partners its backward runs, the pool pair, and one distillation
// --- matching step.

enum Product : std::int64_t { kAB = 0, kABt = 1, kAtB = 2 };

void BM_Gemm32(benchmark::State& state) {
  // [m,k] x [k,n] as A B, A B^T (b stored [n,k]) or A^T B (a stored [k,m]).
  const auto m = state.range(0), kk = state.range(1), n = state.range(2);
  const auto op = static_cast<Product>(state.range(3));
  qd::Rng rng(1);
  const auto a = qd::Tensor::randn(op == kAtB ? qd::Shape{kk, m} : qd::Shape{m, kk}, rng);
  const auto b = qd::Tensor::randn(op == kABt ? qd::Shape{n, kk} : qd::Shape{kk, n}, rng);
  for (auto _ : state) {
    switch (op) {
      case kAB: benchmark::DoNotOptimize(k::matmul(a, b)); break;
      case kABt: benchmark::DoNotOptimize(k::matmul_nt(a, b)); break;
      case kAtB: benchmark::DoNotOptimize(k::matmul_tn(a, b)); break;
    }
  }
  state.SetItemsProcessed(state.iterations() * m * kk * n);
}
BENCHMARK(BM_Gemm32)
    ->ArgNames({"m", "k", "n", "op"})
    ->Args({16, 27, 12288, kAB})    // conv1 forward: W cols
    ->Args({16, 12288, 27, kABt})   // conv1 weight gradient: gy cols^T
    ->Args({27, 16, 12288, kAtB})   // conv1 column gradient: W^T gy
    ->Args({16, 144, 3072, kAB})    // conv2 forward
    ->Args({16, 3072, 144, kABt})   // conv2 weight gradient
    ->Args({144, 16, 3072, kAtB})   // conv2 column gradient
    ->Args({12, 1024, 10, kABt})    // Linear forward: x W^T
    ->Args({12, 10, 1024, kAB})     // Linear input gradient: gy W
    ->Args({10, 12, 1024, kAtB});   // Linear weight gradient: gy^T x

void BM_SumPool2d32(benchmark::State& state) {
  qd::Rng rng(1);
  const auto x = qd::Tensor::randn({12, 16, 32, 32}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(k::sum_pool2d(x, 2));
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_SumPool2d32);

void BM_SpreadPool2d32(benchmark::State& state) {
  // sum_pool2d's adjoint, run by every backward pass through AvgPool2d.
  qd::Rng rng(1);
  const auto g = qd::Tensor::randn({12, 16, 16, 16}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(k::spread_pool2d(g, 2));
  state.SetItemsProcessed(state.iterations() * g.numel() * 4);
}
BENCHMARK(BM_SpreadPool2d32);

/// One gradient-matching pixel update of `synthetic` images against the
/// parameter gradient of `real` images, on `net`.
void distill_match_step(benchmark::State& state, qd::nn::Module& net, const qd::Tensor& real,
                        qd::Tensor synthetic) {
  std::vector<int> labels(static_cast<std::size_t>(real.dim(0)), 3);
  const auto params = net.parameters();
  const auto loss = qd::ag::cross_entropy(net.forward_tensor(real), labels);
  const auto grads = qd::ag::grad(loss, std::span<const qd::ag::Var>(params));
  std::vector<qd::Tensor> grad_real;
  for (const auto& g : grads) grad_real.push_back(g.value());
  qd::core::DistillConfig cfg;
  qd::fl::CostMeter cost;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        qd::core::match_synthetic_to_gradient(net, synthetic, 3, grad_real, cfg, cost));
  }
}

void BM_DistillMatchStep32(benchmark::State& state) {
  qd::nn::ConvNetConfig cfg = bench_net();
  cfg.image_size = 32;
  qd::Rng rng(1);
  auto net = qd::nn::make_convnet(cfg, rng);
  const auto real = qd::Tensor::randn({12, 3, 32, 32}, rng);
  distill_match_step(state, *net, real, qd::Tensor::randn({5, 3, 32, 32}, rng));
}
BENCHMARK(BM_DistillMatchStep32);

void BM_ConvNetForward(benchmark::State& state) {
  qd::Rng rng(1);
  auto net = qd::nn::make_convnet(bench_net(), rng);
  const auto x = qd::Tensor::randn({32, 3, 12, 12}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(net->forward_tensor(x).value());
}
BENCHMARK(BM_ConvNetForward);

// The same forward as an evaluation runs it: no graph is recorded.
void BM_ConvNetPredict(benchmark::State& state) {
  qd::Rng rng(1);
  auto net = qd::nn::make_convnet(bench_net(), rng);
  const auto x = qd::Tensor::randn({32, 3, 12, 12}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(net->predict(x));
}
BENCHMARK(BM_ConvNetPredict);

void BM_SgdStep(benchmark::State& state) {
  qd::Rng rng(1);
  auto net = qd::nn::make_convnet(bench_net(), rng);
  const auto x = qd::Tensor::randn({32, 3, 12, 12}, rng);
  std::vector<int> labels(32);
  for (int i = 0; i < 32; ++i) labels[static_cast<std::size_t>(i)] = i % 10;
  qd::fl::CostMeter cost;
  for (auto _ : state) {
    qd::fl::sgd_step_on_batch(*net, x, labels, 0.01f, qd::nn::UpdateDirection::kDescent, cost);
  }
}
BENCHMARK(BM_SgdStep);

void BM_DistillMatchStep(benchmark::State& state) {
  // One gradient-matching pixel update: the double-backprop inner loop of
  // Algorithm 2 — the dominant cost of QuickDrop's training-time overhead.
  qd::Rng rng(1);
  auto net = qd::nn::make_convnet(bench_net(), rng);
  const auto real = qd::Tensor::randn({16, 3, 12, 12}, rng);
  distill_match_step(state, *net, real, qd::Tensor::randn({2, 3, 12, 12}, rng));
}
BENCHMARK(BM_DistillMatchStep);

// --- Fixed per-op cost on 1-element [1] tensors, where the arithmetic is free:
// --- the kernel call alone, one graph node on top of it, and a graph
// --- build plus its backward.

void BM_OpTaxKernelMul(benchmark::State& state) {
  const qd::Tensor a({1}, {1.5f});
  const qd::Tensor b({1}, {2.0f});
  for (auto _ : state) benchmark::DoNotOptimize(k::mul(a, b));
}
BENCHMARK(BM_OpTaxKernelMul);

void BM_OpTaxAgMul(benchmark::State& state) {
  const auto a = qd::ag::Var::leaf(qd::Tensor({1}, {1.5f}));
  const auto b = qd::ag::Var::leaf(qd::Tensor({1}, {2.0f}));
  for (auto _ : state) benchmark::DoNotOptimize(qd::ag::mul(a, b));
}
BENCHMARK(BM_OpTaxAgMul);

void BM_OpTaxMulSumGrad(benchmark::State& state) {
  const auto a = qd::ag::Var::leaf(qd::Tensor({1}, {1.5f}));
  const auto b = qd::ag::Var::leaf(qd::Tensor({1}, {2.0f}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(qd::ag::grad(qd::ag::sum_all(qd::ag::mul(a, b)), {a, b}));
  }
}
BENCHMARK(BM_OpTaxMulSumGrad);

// --- Thread sweeps of the parallelized kernels (acceptance: matmul >= 3x at
// --- 4 threads for n >= 256 on a multicore host).

void BM_MatMulThreads(benchmark::State& state) {
  const PoolScope pool(state.range(1));
  const auto n = state.range(0);
  qd::Rng rng(1);
  const auto a = qd::Tensor::randn({n, n}, rng);
  const auto b = qd::Tensor::randn({n, n}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(k::matmul(a, b));
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulThreads)
    ->ArgNames({"n", "threads"})
    ->Apply([](benchmark::internal::Benchmark* b) {
      for (const std::int64_t n : {256, 384}) {
        for (const auto t : thread_sweep()) b->Args({n, t});
      }
    });

void BM_Im2ColThreads(benchmark::State& state) {
  const PoolScope pool(state.range(0));
  qd::Rng rng(1);
  const auto x = qd::Tensor::randn({32, 16, 24, 24}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(k::im2col(x, 3, 1, 1));
}
BENCHMARK(BM_Im2ColThreads)->ArgNames({"threads"})->Apply(thread_args);

void BM_ConvForwardBackwardThreads(benchmark::State& state) {
  // One full conv-net forward + backward (the per-sample-gradient unit cost):
  // exercises matmul, im2col, col2im and reduce_sum_to together.
  const PoolScope pool(state.range(0));
  qd::Rng rng(1);
  auto net = qd::nn::make_convnet(bench_net(), rng);
  const auto x = qd::Tensor::randn({32, 3, 12, 12}, rng);
  std::vector<int> labels(32);
  for (int i = 0; i < 32; ++i) labels[static_cast<std::size_t>(i)] = i % 10;
  const auto params = net->parameters();
  for (auto _ : state) {
    const auto loss = qd::ag::cross_entropy(net->forward_tensor(x), labels);
    benchmark::DoNotOptimize(qd::ag::grad(loss, std::span<const qd::ag::Var>(params)));
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_ConvForwardBackwardThreads)->ArgNames({"threads"})->Apply(thread_args);

// --- Scalar vs SIMD microkernel dispatch (tensor/simd.h) on the blocked
// --- matmul, 1 thread: the same fixed-block partitioning runs with either
// --- table, so this isolates the AVX2 tile speedup.

struct DispatchScope {
  explicit DispatchScope(qd::simd::Dispatch d) { qd::simd::force_dispatch(d); }
  ~DispatchScope() { qd::simd::force_dispatch(qd::simd::Dispatch::kAuto); }
};

void BM_MatMulDispatch(benchmark::State& state) {
  const PoolScope pool(1);
  const DispatchScope dispatch(state.range(1) == 0 ? qd::simd::Dispatch::kScalar
                                                   : qd::simd::Dispatch::kAvx2);
  const auto n = state.range(0);
  qd::Rng rng(1);
  const auto a = qd::Tensor::randn({n, n}, rng);
  const auto b = qd::Tensor::randn({n, n}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(k::matmul(a, b));
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulDispatch)
    ->ArgNames({"n", "simd"})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({256, 0})
    ->Args({256, 1});

void BM_SgaUnlearnStep(benchmark::State& state) {
  // One SGA ascent step on a QuickDrop-sized synthetic forget batch.
  qd::Rng rng(1);
  auto net = qd::nn::make_convnet(bench_net(), rng);
  const auto x = qd::Tensor::randn({10, 3, 12, 12}, rng);
  std::vector<int> labels(10, 9);
  qd::fl::CostMeter cost;
  for (auto _ : state) {
    qd::fl::sgd_step_on_batch(*net, x, labels, 0.02f, qd::nn::UpdateDirection::kAscent, cost);
  }
}
BENCHMARK(BM_SgaUnlearnStep);

}  // namespace

// BENCHMARK_MAIN, plus a default machine-readable report: unless the caller
// already passed --benchmark_out, results are written to
// BENCH_micro_ops.json in the working directory.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    has_out |= std::strncmp(argv[i], "--benchmark_out", 15) == 0;
  }
  static char out_flag[] = "--benchmark_out=BENCH_micro_ops.json";
  static char fmt_flag[] = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag);
    args.push_back(fmt_flag);
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
