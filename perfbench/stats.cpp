#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

std::size_t rank_of(double p, std::size_t n) {
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double nearest_rank(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("nearest_rank: no samples");
  if (!(p > 0.0 && p <= 100.0)) throw std::invalid_argument("nearest_rank: p outside (0, 100]");
  std::sort(samples.begin(), samples.end());
  return samples[rank_of(p, samples.size()) - 1];
}

Tail tail(const std::vector<double>& samples, std::size_t beyond) {
  if (samples.empty()) throw std::invalid_argument("tail: no samples");
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  for (int p = 99; p >= 50; --p) {
    const std::size_t rank = rank_of(p, n);
    if (n - rank >= beyond) return Tail{p, sorted[rank - 1], n};
  }
  return Tail{100, sorted.back(), n};
}

double median(const std::vector<double>& samples) { return nearest_rank(samples, 50.0); }

}  // namespace perfbench
