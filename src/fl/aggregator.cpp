#include "fl/aggregator.h"

#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "tensor/simd.h"

namespace quickdrop::fl {

namespace {

void check_layout(const nn::StateAccumulator& acc, const nn::ModelState& state,
                  const char* context) {
  if (state.layout() == acc.layout()) return;
  if (state.layout() && acc.layout() && state.layout()->hash() == acc.layout()->hash()) return;
  throw nn::StateError(std::string(context) + ": state layout mismatch");
}

}  // namespace

Aggregator::Aggregator(std::shared_ptr<const nn::StateLayout> layout)
    : acc_(std::move(layout), nn::StateAccumulator::kLanes) {
  scratch_.assign(static_cast<std::size_t>(nn::kStateBlock), 0.0f);
}

int Aggregator::lane_of(int client_id) {
  // splitmix64 finalizer over the (widened) id: well-mixed low bits, stable
  // across platforms and rounds.
  std::uint64_t x = static_cast<std::uint32_t>(client_id);
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<int>(x & (nn::StateAccumulator::kLanes - 1));
}

void Aggregator::fold(int client_id, const nn::ModelState& state, double weight) {
  acc_.fold(state, weight, lane_of(client_id));
}

Aggregator::WireProbe Aggregator::probe_quantized(std::span<const std::uint8_t> wire,
                                                  const nn::ModelState& global) {
  check_layout(acc_, global, "Aggregator::probe_quantized");
  const auto gd = global.data();
  const auto& bounds = acc_.layout()->block_bounds();
  const auto& kern = simd::active();
  WireProbe probe;
  probe.finite = true;
  double sum = 0.0;    // per-state-block partials, combined in block order
  std::size_t b = 0;   // current state block
  decode_delta_blocks(wire, global.layout(), [&](std::int64_t lo, std::int64_t len,
                                                 const float* vals) {
    // Reconstruct global + delta for this wire block inside the enclosing
    // state block's scratch slot. Per element this is the exact chain the
    // buffered path runs (copy global, then axpy with a = 1.0f).
    float* s = scratch_.data() + (lo - bounds[b]);
    std::memcpy(s, gd.data() + lo, static_cast<std::size_t>(len) * sizeof(float));
    kern.axpy(s, vals, 1.0f, len);
    if (lo + len == bounds[b + 1]) {  // state block complete: flush its stats
      const std::int64_t blen = bounds[b + 1] - bounds[b];
      if (probe.finite) {
        for (std::int64_t i = 0; i < blen; ++i) {
          if (!std::isfinite(scratch_[static_cast<std::size_t>(i)])) {
            probe.finite = false;
            break;
          }
        }
      }
      sum += kern.sum_squared_diff(scratch_.data(), gd.data() + bounds[b], blen);
      ++b;
    }
  });
  probe.norm = std::sqrt(sum);
  return probe;
}

void Aggregator::fold_quantized(int client_id, std::span<const std::uint8_t> wire,
                                const nn::ModelState& global, double weight) {
  check_layout(acc_, global, "Aggregator::fold_quantized");
  const int lane = lane_of(client_id);
  const auto gd = global.data();
  const auto& kern = simd::active();
  decode_delta_blocks(wire, global.layout(), [&](std::int64_t lo, std::int64_t len,
                                                 const float* vals) {
    float* s = scratch_.data();
    std::memcpy(s, gd.data() + lo, static_cast<std::size_t>(len) * sizeof(float));
    kern.axpy(s, vals, 1.0f, len);
    acc_.fold_range(lane, lo, s, len, weight);
  });
}

nn::ModelState Aggregator::finalize(double scale) { return acc_.finalize_scaled(scale); }

void Aggregator::reset() { acc_.reset(); }

std::int64_t Aggregator::memory_bytes() const {
  return acc_.memory_bytes() + static_cast<std::int64_t>(scratch_.size() * sizeof(float));
}

}  // namespace quickdrop::fl
