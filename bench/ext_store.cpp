// google-benchmark microbenchmarks of the crash-safe state store
// (DESIGN.md §12): commit throughput for fresh and deduplicated payloads,
// read-back, recovery-on-open latency as the file grows, vacuum, and
// round-over-round checkpoint saves. Results land in
// BENCH_store.json (see main below); run_all.sh checks the file exists after
// the bench sweep.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "data/synthetic.h"
#include "nn/convnet.h"
#include "store/store.h"
#include "util/rng.h"

namespace qd = quickdrop;
namespace store = quickdrop::store;

namespace {

std::string bench_path(const char* name) {
  const std::string path = std::string("BENCH_store_scratch_") + name + ".qds";
  std::remove(path.c_str());
  std::remove((path + ".vacuum").c_str());
  return path;
}

std::vector<std::uint8_t> payload(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> out(n);
  qd::Rng rng(seed);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return out;
}

// ---------------------------------------------------------------------------
// Commit path: fresh payloads (every page written) vs unchanged payloads
// (every data page dedups; only index + commit pages hit the disk).
// ---------------------------------------------------------------------------

void BM_CommitFresh(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const auto path = bench_path("commit_fresh");
  store::Store s(path);
  std::uint64_t round = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const auto value = payload(bytes, round + 1);  // new bytes every round
    state.ResumeTiming();
    s.put({1, 1, round}, value);
    s.commit();
    ++round;
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
  std::remove(path.c_str());
}
BENCHMARK(BM_CommitFresh)->Arg(4 << 10)->Arg(256 << 10)->Arg(1 << 20);

void BM_CommitDeduped(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const auto path = bench_path("commit_dedup");
  store::Store s(path);
  const auto value = payload(bytes, 7);  // identical bytes every round
  std::uint64_t round = 0;
  for (auto _ : state) {
    s.put({1, 1, round}, value);
    s.commit();
    ++round;
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
  std::remove(path.c_str());
}
BENCHMARK(BM_CommitDeduped)->Arg(256 << 10)->Arg(1 << 20);

// ---------------------------------------------------------------------------
// Read-back of a committed record (pages + CRC verification per page and for
// the whole value).
// ---------------------------------------------------------------------------

void BM_Get(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const auto path = bench_path("get");
  store::Store s(path);
  s.put({1, 1, 0}, payload(bytes, 11));
  s.commit();
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.get({1, 1, 0}));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
  std::remove(path.c_str());
}
BENCHMARK(BM_Get)->Arg(4 << 10)->Arg(1 << 20);

// ---------------------------------------------------------------------------
// Recovery-on-open: backward scan + full verification of the youngest valid
// commit, as a function of accumulated history.
// ---------------------------------------------------------------------------

void BM_RecoveryOpen(benchmark::State& state) {
  const auto commits = static_cast<std::uint64_t>(state.range(0));
  const auto path = bench_path("recover");
  {
    store::Store s(path);
    for (std::uint64_t round = 0; round < commits; ++round) {
      s.put({1, 1, round % 4}, payload(64 << 10, round));
      s.commit();
    }
  }
  for (auto _ : state) {
    store::Store reopened(path);
    benchmark::DoNotOptimize(reopened.committed_seq());
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_RecoveryOpen)->Arg(4)->Arg(32);

void BM_Vacuum(benchmark::State& state) {
  const auto path = bench_path("vacuum");
  for (auto _ : state) {
    state.PauseTiming();
    std::remove(path.c_str());
    store::Store s(path);
    // 12 generations of one key: 11 of them dead weight for vacuum to drop.
    for (std::uint64_t gen = 0; gen < 12; ++gen) {
      s.put({1, 1, 0}, payload(128 << 10, gen));
      s.commit();
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(s.vacuum());
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_Vacuum);

// ---------------------------------------------------------------------------
// Checkpoint persistence: one committed record per round (transactional,
// dedups unchanged rounds), on a small deployment.
// ---------------------------------------------------------------------------

qd::core::Checkpoint make_deployment() {
  qd::data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.channels = 1;
  spec.image_size = 16;
  spec.train_per_class = 64;
  spec.test_per_class = 2;
  spec.seed = 21;
  const auto tt = qd::data::make_synthetic(spec);
  qd::Rng rng(3);
  std::vector<qd::core::SyntheticStore> stores;
  stores.emplace_back(tt.train, 5, rng);
  stores.emplace_back(tt.train, 5, rng);
  qd::nn::ConvNetConfig cfg;
  cfg.in_channels = 1;
  cfg.image_size = 16;
  cfg.width = 16;
  cfg.depth = 2;
  cfg.num_classes = 4;
  qd::Rng mrng(5);
  auto model = qd::nn::make_convnet(cfg, mrng);
  return qd::core::make_checkpoint(qd::nn::state_of(*model), stores);
}

void BM_CheckpointSaveStore(benchmark::State& state) {
  const auto cp = make_deployment();
  const auto path = bench_path("cp_store");
  store::Store s(path);
  std::uint64_t round = 0;
  for (auto _ : state) {
    qd::core::save_checkpoint(cp, s, round++);
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_CheckpointSaveStore);

}  // namespace

// Writes BENCH_store.json in the working directory unless the caller already
// passed --benchmark_out.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    has_out |= std::strncmp(argv[i], "--benchmark_out", 15) == 0;
  }
  static char out_flag[] = "--benchmark_out=BENCH_store.json";
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
