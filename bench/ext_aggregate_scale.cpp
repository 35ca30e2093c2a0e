// Extension experiment: streaming round aggregation at scale.
//
// Drives synthetic client updates straight through fl::Aggregator — no
// federation world, no training — to measure the server-side merge alone:
//
//   1. Scale sweep: cohorts of 10k / 100k simulated clients (up to 1M with
//      --max-clients) folded through one round per cohort size. Reported per
//      round: wall-clock, folds/s, and the server's peak aggregation memory
//      (accumulator + scratch + the single in-flight update). The buffered
//      equivalent — cohort × state_bytes, what a batch merge would have to
//      hold — is computed arithmetically for contrast: at 1M clients it
//      would be terabytes, which is exactly why it is not allocated here.
//   2. Thread-count verdict: the same 1k-client cohort merged with the pool
//      at 1 and at 4 threads must produce bitwise-identical roots (the
//      DESIGN.md §16 contract); the process exits nonzero otherwise so CI can
//      gate on it.
//
// BENCH_aggregate_scale.json records the deterministic facts (cohort sizes,
// memory curves, the verdict) plus wall-clock columns, which vary run to run
// and are for plotting only.
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "fl/aggregator.h"
#include "nn/state.h"
#include "util/atomic_file.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace qd = quickdrop;

namespace {

/// Mutates a handful of entries so every simulated client uploads a distinct
/// update without paying a full regeneration per client.
void perturb(qd::nn::ModelState& state, std::uint64_t client) {
  auto d = state.data();
  const auto n = static_cast<std::uint64_t>(d.size());
  for (int k = 0; k < 8; ++k) {
    std::uint64_t h = client * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(k);
    h ^= h >> 31;
    d[static_cast<std::size_t>(h % n)] =
        0.001f * static_cast<float>(static_cast<std::int64_t>(h % 4001) - 2000);
  }
}

struct RoundResult {
  qd::nn::ModelState root;
  double seconds = 0.0;
  std::int64_t streaming_bytes = 0;
};

/// One full round: `cohort` clients fold into a fresh aggregator, then the
/// root merge. The single scratch update models the one in-flight decoded
/// state a streaming server holds at a time.
RoundResult run_round(const std::shared_ptr<const qd::nn::StateLayout>& layout,
                      std::int64_t cohort) {
  qd::fl::Aggregator agg(layout);
  qd::nn::ModelState update{layout};
  auto d = update.data();
  for (std::size_t i = 0; i < d.size(); ++i) {
    d[i] = 0.001f * static_cast<float>(static_cast<std::int64_t>((i * 2654435761ULL) % 2003) -
                                       1001);
  }
  const auto start = std::chrono::steady_clock::now();
  double total_weight = 0.0;
  for (std::int64_t c = 0; c < cohort; ++c) {
    perturb(update, static_cast<std::uint64_t>(c));
    const double w = static_cast<double>(1 + c % 17);
    agg.fold(static_cast<int>(c), update, w);
    total_weight += w;
  }
  RoundResult r;
  r.streaming_bytes = agg.memory_bytes() + qd::nn::state_bytes(update);
  r.root = agg.finalize(1.0 / total_weight);
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return r;
}

bool bitwise_equal(const qd::nn::ModelState& a, const qd::nn::ModelState& b) {
  if (a.numel() != b.numel()) return false;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    if (std::bit_cast<std::uint32_t>(a.at(i)) != std::bit_cast<std::uint32_t>(b.at(i))) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  qd::CliFlags flags(argc, argv);
  const std::int64_t params = flags.get_int("params", 1 << 14);
  const std::int64_t max_clients = flags.get_int("max-clients", 100000);
  const auto out_path = flags.get_string("out", "BENCH_aggregate_scale.json");
  const int threads = flags.get_int("threads", 0);
  flags.check_unused();

  const auto layout = qd::nn::StateLayout::of_shapes({qd::Shape{params}});
  const std::int64_t state_bytes =
      static_cast<std::int64_t>(params) * static_cast<std::int64_t>(sizeof(float));

  // Thread-count verdict first: same cohort, pool at 1 and at 4 threads.
  const int sweep_threads = threads > 0 ? threads : qd::num_threads();
  qd::set_num_threads(1);
  const auto r1 = run_round(layout, 1000);
  qd::set_num_threads(4);
  const auto r4 = run_round(layout, 1000);
  const bool invariant = bitwise_equal(r1.root, r4.root);
  std::printf("thread-count invariance (1k clients @ 1/4 threads): %s\n",
              invariant ? "bitwise identical" : "DIVERGED");

  qd::set_num_threads(sweep_threads);
  std::printf("streaming aggregation: %lld params (%lld KiB/state), %d thread(s)\n",
              static_cast<long long>(params), static_cast<long long>(state_bytes >> 10),
              qd::num_threads());

  std::vector<std::int64_t> cohorts;
  for (std::int64_t c = 10000; c <= max_clients; c *= 10) cohorts.push_back(c);

  qd::TextTable table;
  table.set_header({"clients", "wall(s)", "folds/s", "stream peak(B)", "buffered(B)", "ratio"});
  std::ostringstream rows;
  for (const std::int64_t cohort : cohorts) {
    const auto r = run_round(layout, cohort);
    // What a materialize-everything merge would hold.
    const std::int64_t buffered_bytes = cohort * state_bytes;
    table.add_row({std::to_string(cohort), qd::fmt_double(r.seconds, 3),
                   qd::fmt_double(static_cast<double>(cohort) / r.seconds, 0),
                   std::to_string(r.streaming_bytes), std::to_string(buffered_bytes),
                   qd::fmt_double(static_cast<double>(buffered_bytes) /
                                      static_cast<double>(r.streaming_bytes),
                                  1)});
    rows << (rows.tellp() > 0 ? ",\n" : "") << "  {\"clients\": " << cohort
         << ", \"wall_seconds\": " << qd::fmt_double(r.seconds, 6)
         << ", \"streaming_peak_bytes\": " << r.streaming_bytes
         << ", \"buffered_bytes\": " << buffered_bytes << "}";
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("streaming peak memory is O(params): it does not grow with the cohort, while\n"
              "the buffered column grows linearly.\n");

  std::ostringstream json;
  json << "{\n\"params\": " << params << ",\n\"state_bytes\": " << state_bytes
       << ",\n\"thread_invariance_bitwise\": " << (invariant ? "true" : "false")
       << ",\n\"rounds\": [\n"
       << rows.str() << "\n]\n}\n";
  qd::write_file_atomic(out_path, json.str());
  std::printf("results written to %s\n", out_path.c_str());
  return invariant ? 0 : 1;
}
