// Summary statistics the benchmark reports.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile, p in (0, 100]: the smallest sample such that at
/// least p% of samples are <= it (rank ceil(p/100 * n), 1-based). Throws on
/// an empty sample or p outside (0, 100].
double nearest_rank(std::vector<double> samples, double p);

/// The highest whole percentile p in [50, 99] whose nearest-rank sample has
/// at least `beyond` samples ranked after it, and that sample. With fewer
/// than 2 * beyond samples no such p exists; the tail is then the maximum,
/// reported as percentile 100.
struct Tail {
  int percentile = 100;
  double value = 0.0;
  std::size_t samples = 0;
};
Tail tail(const std::vector<double>& samples, std::size_t beyond = 10);

double median(const std::vector<double>& samples);

}  // namespace perfbench
