// google-benchmark microbenchmarks of the parameter plane (DESIGN.md §11):
// axpy / streaming weighted-average / serialize throughput on the flat
// ModelState, swept over pool sizes. Results land in BENCH_state_ops.json
// (see main below) for machine consumption; run_all.sh checks the file
// exists after the bench sweep.
// The *Scalar/*Simd pairs pin the microkernel dispatch (tensor/simd.h) to
// one table on L2-resident buffers, isolating the SIMD speedup from memory
// bandwidth (acceptance: >= 2x at 1 thread on axpy / weighted average /
// l2_distance). The Quantize* benchmarks measure the int8/bf16 update codec
// (fl/quantize.h) and report the wire/fp32 byte ratio as a counter.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "fl/quantize.h"
#include "nn/state.h"
#include "nn/state_accumulator.h"
#include "tensor/simd.h"
#include "util/thread_pool.h"

namespace qd = quickdrop;
namespace nn = quickdrop::nn;

namespace {

// Pins the pool to `threads` for one benchmark run, restoring on scope exit
// so the sweep order can't leak into other benchmarks.
struct PoolScope {
  int saved = qd::num_threads();
  explicit PoolScope(std::int64_t threads) { qd::set_num_threads(static_cast<int>(threads)); }
  ~PoolScope() { qd::set_num_threads(saved); }
};

// A paper-scale ConvNet state (width 128, depth 3, 10 classes): ~450k floats
// across conv/norm/linear parameters — big enough that the pooled kernels
// split into many blocks.
const std::vector<qd::Shape> kNetShapes = {
    {128, 3, 3, 3},  {128}, {128}, {128},          // block 1 conv + norm
    {128, 128, 3, 3}, {128}, {128}, {128},         // block 2
    {128, 128, 3, 3}, {128}, {128}, {128},         // block 3
    {10, 1152},      {10},                         // classifier
};

nn::ModelState make_flat(float phase) {
  auto layout = nn::StateLayout::of_shapes(kNetShapes);
  std::vector<float> values(static_cast<std::size_t>(layout->total()));
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 0.001f * static_cast<float>((i * 2654435761ULL) % 2003) - 1.0f + phase;
  }
  return {std::move(layout), std::move(values)};
}

// ---------------------------------------------------------------------------
// axpy
// ---------------------------------------------------------------------------

void BM_AxpyFlat(benchmark::State& state) {
  PoolScope pool(state.range(0));
  auto y = make_flat(0.0f);
  const auto x = make_flat(0.5f);
  for (auto _ : state) {
    nn::axpy(y, x, 0.001f);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.SetItemsProcessed(state.iterations() * y.numel());
}
BENCHMARK(BM_AxpyFlat)->Arg(1)->Arg(4)->Arg(8);

// ---------------------------------------------------------------------------
// weighted average (FedAvg's aggregation step; 16 clients)
// ---------------------------------------------------------------------------

constexpr int kClients = 16;

// The 16-client merge folded one update at a time through a single-lane
// StateAccumulator (nn/state_accumulator.h) — the round aggregator's inner
// loop, holding O(params) memory at any cohort size.
void BM_WeightedAverageStreaming(benchmark::State& state) {
  PoolScope pool(state.range(0));
  std::vector<nn::ModelState> states;
  for (int c = 0; c < kClients; ++c) {
    states.push_back(make_flat(0.01f * static_cast<float>(c)));
  }
  nn::StateAccumulator acc(states.front().layout(), /*lanes=*/1);
  const double w = 1.0 / static_cast<double>(kClients);
  for (auto _ : state) {
    for (const auto& s : states) acc.fold(s, w);
    benchmark::DoNotOptimize(acc.finalize());
    acc.reset();
  }
  state.counters["peak_bytes"] = static_cast<double>(acc.memory_bytes());
  state.SetItemsProcessed(state.iterations() * states.front().numel() * kClients);
}
BENCHMARK(BM_WeightedAverageStreaming)->Arg(1)->Arg(4)->Arg(8);

// ---------------------------------------------------------------------------
// serialize (checkpoint writes, FedEraser history persists)
// ---------------------------------------------------------------------------

void BM_SerializeFlat(benchmark::State& state) {
  PoolScope pool(state.range(0));
  const auto s = make_flat(0.25f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::serialize_state(s));
  }
  state.SetBytesProcessed(state.iterations() * s.numel() *
                          static_cast<std::int64_t>(sizeof(float)));
}
BENCHMARK(BM_SerializeFlat)->Arg(1)->Arg(4)->Arg(8);

// ---------------------------------------------------------------------------
// Scalar vs SIMD dispatch columns (1 thread, L2-resident working set)
// ---------------------------------------------------------------------------

// Pins the microkernel table for one benchmark run. kAuto restores the
// startup selection on scope exit.
struct DispatchScope {
  explicit DispatchScope(qd::simd::Dispatch d) { qd::simd::force_dispatch(d); }
  ~DispatchScope() { qd::simd::force_dispatch(qd::simd::Dispatch::kAuto); }
};

qd::simd::Dispatch dispatch_of(std::int64_t arg) {
  return arg == 0 ? qd::simd::Dispatch::kScalar : qd::simd::Dispatch::kAvx2;
}

// 32k floats (128 KB) per buffer: resident in L2, so the elementwise pairs
// compare compute throughput rather than memory bandwidth.
nn::ModelState make_small(float phase) {
  auto layout = nn::StateLayout::of_shapes({qd::Shape{32768}});
  std::vector<float> values(static_cast<std::size_t>(layout->total()));
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 0.001f * static_cast<float>((i * 2654435761ULL) % 2003) - 1.0f + phase;
  }
  return {std::move(layout), std::move(values)};
}

void BM_AxpyDispatch(benchmark::State& state) {
  PoolScope pool(1);
  DispatchScope dispatch(dispatch_of(state.range(0)));
  auto y = make_small(0.0f);
  const auto x = make_small(0.5f);
  for (auto _ : state) {
    nn::axpy(y, x, 0.001f);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.SetItemsProcessed(state.iterations() * y.numel());
}
BENCHMARK(BM_AxpyDispatch)->ArgNames({"simd"})->Arg(0)->Arg(1);

// The single-lane StateAccumulator merge of 8 clients (fold + finalize).
void BM_WeightedAverageDispatch(benchmark::State& state) {
  PoolScope pool(1);
  DispatchScope dispatch(dispatch_of(state.range(0)));
  std::vector<nn::ModelState> states;
  for (int c = 0; c < 8; ++c) {
    states.push_back(make_small(0.01f * static_cast<float>(c)));
  }
  nn::StateAccumulator acc(states.front().layout(), /*lanes=*/1);
  for (auto _ : state) {
    for (const auto& s : states) acc.fold(s, 0.125);
    benchmark::DoNotOptimize(acc.finalize());
    acc.reset();
  }
  state.SetItemsProcessed(state.iterations() * states.front().numel() * 8);
}
BENCHMARK(BM_WeightedAverageDispatch)->ArgNames({"simd"})->Arg(0)->Arg(1);

void BM_L2DistanceDispatch(benchmark::State& state) {
  PoolScope pool(1);
  DispatchScope dispatch(dispatch_of(state.range(0)));
  const auto a = make_small(0.0f);
  const auto b = make_small(0.5f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::l2_distance(a, b));
  }
  state.SetItemsProcessed(state.iterations() * a.numel());
}
BENCHMARK(BM_L2DistanceDispatch)->ArgNames({"simd"})->Arg(0)->Arg(1);

// ---------------------------------------------------------------------------
// Quantized update transport: codec throughput and the fp32-vs-quantized
// byte ratio (acceptance: int8 wire <= 30% of raw fp32)
// ---------------------------------------------------------------------------

qd::fl::Codec codec_of(std::int64_t arg) {
  return arg == 0 ? qd::fl::Codec::kInt8 : qd::fl::Codec::kBf16;
}

void BM_QuantizeEncode(benchmark::State& state) {
  const auto delta = make_flat(0.25f);
  const auto codec = codec_of(state.range(0));
  std::size_t wire_bytes = 0;
  for (auto _ : state) {
    const auto wire = qd::fl::encode_delta(delta, codec);
    wire_bytes = wire.size();
    benchmark::DoNotOptimize(wire.data());
  }
  const auto fp32_bytes = static_cast<double>(nn::state_bytes(delta));
  state.counters["wire_bytes"] = static_cast<double>(wire_bytes);
  state.counters["fp32_bytes"] = fp32_bytes;
  state.counters["bytes_ratio"] = static_cast<double>(wire_bytes) / fp32_bytes;
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(fp32_bytes));
}
BENCHMARK(BM_QuantizeEncode)->ArgNames({"bf16"})->Arg(0)->Arg(1);

void BM_QuantizeDecode(benchmark::State& state) {
  const auto delta = make_flat(0.25f);
  const auto codec = codec_of(state.range(0));
  const auto wire = qd::fl::encode_delta(delta, codec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qd::fl::decode_delta(wire, delta.layout()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(nn::state_bytes(delta)));
}
BENCHMARK(BM_QuantizeDecode)->ArgNames({"bf16"})->Arg(0)->Arg(1);

}  // namespace

// Writes BENCH_state_ops.json in the working directory unless the caller
// already passed --benchmark_out.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    has_out |= std::strncmp(argv[i], "--benchmark_out", 15) == 0;
  }
  static char out_flag[] = "--benchmark_out=BENCH_state_ops.json";
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
