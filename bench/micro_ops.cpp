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
// --- the broadcasts, reductions, transposes and unfolds autograd runs on
// --- every forward/backward of the distillation loop.

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

void BM_AvgPoolReduce(benchmark::State& state) {
  const auto m = state.range(0);
  qd::Rng rng(1);
  const auto x = qd::Tensor::randn({m, 16, 6, 2, 6, 2}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(k::reduce_sum_to(x, {m, 16, 6, 1, 6, 1}));
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_AvgPoolReduce)->Arg(32);

void BM_AvgPoolBroadcast(benchmark::State& state) {
  // The AvgPool reduction's adjoint, run by every backward pass.
  const auto m = state.range(0);
  qd::Rng rng(1);
  const auto g = qd::Tensor::randn({m, 16, 6, 1, 6, 1}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(k::broadcast_to(g, {m, 16, 6, 2, 6, 2}));
  state.SetItemsProcessed(state.iterations() * g.numel() * 4);
}
BENCHMARK(BM_AvgPoolBroadcast)->Arg(32);

void BM_ConvBiasReduce(benchmark::State& state) {
  const auto m = state.range(0);
  qd::Rng rng(1);
  const auto x = qd::Tensor::randn({m, 16, 12, 12}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(k::reduce_sum_to(x, {1, 16, 1, 1}));
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_ConvBiasReduce)->Arg(32);

void BM_TransposeCols(benchmark::State& state) {
  const auto m = state.range(0);
  qd::Rng rng(1);
  const auto cols = qd::Tensor::randn({27, m * 144}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(k::transpose2d(cols));
  state.SetItemsProcessed(state.iterations() * cols.numel());
}
BENCHMARK(BM_TransposeCols)->Arg(32);

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

qd::nn::ConvNetConfig bench_net() {
  qd::nn::ConvNetConfig cfg;
  cfg.in_channels = 3;
  cfg.image_size = 12;
  cfg.width = 16;
  cfg.depth = 2;
  return cfg;
}

void BM_ConvNetForward(benchmark::State& state) {
  qd::Rng rng(1);
  auto net = qd::nn::make_convnet(bench_net(), rng);
  const auto x = qd::Tensor::randn({32, 3, 12, 12}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(net->forward_tensor(x).value());
}
BENCHMARK(BM_ConvNetForward);

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
  const auto x = qd::Tensor::randn({16, 3, 12, 12}, rng);
  std::vector<int> labels(16, 3);
  const auto params = net->parameters();
  const auto loss = qd::ag::cross_entropy(net->forward_tensor(x), labels);
  const auto grads = qd::ag::grad(loss, std::span<const qd::ag::Var>(params));
  std::vector<qd::Tensor> grad_real;
  for (const auto& g : grads) grad_real.push_back(g.value());

  qd::Tensor synthetic = qd::Tensor::randn({2, 3, 12, 12}, rng);
  qd::core::DistillConfig cfg;
  qd::fl::CostMeter cost;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        qd::core::match_synthetic_to_gradient(*net, synthetic, 3, grad_real, cfg, cost));
  }
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
