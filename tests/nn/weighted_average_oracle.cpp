#include "weighted_average_oracle.h"

#include <algorithm>
#include <array>
#include <vector>

#include "tensor/simd.h"
#include "util/thread_pool.h"

namespace quickdrop::nn::oracle {
namespace {

// Elementwise per-chunk work folded through the on-stack double scratch at a
// time. Sub-chunk boundaries cannot affect result bits: each element's
// accumulation chain is independent of where the cuts fall.
constexpr std::int64_t kWavgChunk = 2048;

}  // namespace

ModelState weighted_average(std::span<const ModelState> states, std::span<const float> weights) {
  if (states.empty() || states.size() != weights.size()) {
    throw StateError("weighted_average: need one weight per state");
  }
  for (std::size_t i = 1; i < states.size(); ++i) {
    const auto& a = states[0].layout();
    const auto& b = states[i].layout();
    if (a != b && !(a && b && a->hash() == b->hash())) {
      throw StateError("weighted_average: state layout mismatch");
    }
  }
  if (states[0].empty()) return {};
  ModelState out{states[0].layout()};
  const std::size_t k = states.size();
  std::vector<const float*> src(k);
  std::vector<double> w(k);
  for (std::size_t i = 0; i < k; ++i) {
    src[i] = states[i].data().data();
    w[i] = static_cast<double>(weights[i]);
  }
  auto od = out.data();
  const auto& kern = simd::active();
  // Each element is accumulated in double precision over the clients in
  // index order: the order is fixed and independent of both the block cut
  // and the dispatch path, so the result is bitwise identical at any thread
  // count.
  const auto& bounds = out.layout()->block_bounds();
  ThreadPool::global().parallel_for(
      0, out.layout()->num_blocks(), 1, [&](std::int64_t b0, std::int64_t b1) {
        std::array<double, kWavgChunk> scratch;
        for (std::int64_t b = b0; b < b1; ++b) {
          const std::int64_t begin = bounds[static_cast<std::size_t>(b)];
          const std::int64_t end = bounds[static_cast<std::size_t>(b) + 1];
          for (std::int64_t lo = begin; lo < end; lo += kWavgChunk) {
            const std::int64_t len = std::min(end - lo, kWavgChunk);
            scratch.fill(0.0);
            for (std::size_t i = 0; i < k; ++i) {
              kern.wavg_fold(scratch.data(), src[i] + lo, w[i], len);
            }
            kern.wavg_store(od.data() + lo, scratch.data(), len);
          }
        }
      });
  return out;
}

}  // namespace quickdrop::nn::oracle
