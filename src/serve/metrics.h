// Per-request lifecycle metrics and the aggregate service report.
//
// Every timestamp here is *simulated* seconds (trace arrival times plus the
// executor's CostModel), so a report is a pure function of (trace, seed,
// config) and bitwise identical at any thread count. Wall-clock never enters
// the JSON.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/queue.h"

namespace quickdrop::serve {

/// Lifecycle record of one completed request.
struct RequestMetrics {
  std::int64_t id = -1;
  RequestKind kind = RequestKind::kClass;
  int target = 0;
  double arrival_seconds = 0.0;     ///< from the trace
  double start_seconds = 0.0;       ///< sim clock when its cycle began
  double completion_seconds = 0.0;  ///< sim clock when its cycle finished
  int unlearn_rounds = 0;           ///< shared across the cycle's batch
  int recovery_rounds = 0;
  std::int64_t bytes_up = 0;  ///< whole-cycle communication (shared)
  std::int64_t bytes_down = 0;
  int batch_size = 1;  ///< requests merged into this cycle
  int cycle = 0;       ///< 0-based index of the cycle that served it
  double fset_accuracy = -1.0;  ///< post-cycle accuracy on the forget set (-1 = not evaluated)
  double rset_accuracy = -1.0;  ///< post-cycle accuracy on the retained classes
  /// Verified SGA only (shared across the cycle's batch): the synthetic
  /// forget-set accuracy SGA ended at (-1 = fixed rounds, not measured) and
  /// whether it reached the target before the round cap.
  double sga_forget_accuracy = -1.0;
  bool sga_target_reached = false;

  [[nodiscard]] double queue_wait() const { return start_seconds - arrival_seconds; }
  [[nodiscard]] double latency() const { return completion_seconds - arrival_seconds; }
};

/// Aggregate view of one service run, serializable to deterministic JSON.
struct ServiceReport {
  std::string policy;
  std::string transport = "inproc";       ///< "inproc" or "http"
  std::vector<RequestMetrics> completed;  ///< completion order
  std::vector<RejectedRequest> rejected;  ///< admission order
  int cycles = 0;
  int total_fl_rounds = 0;  ///< SGA + recovery rounds across all cycles
  std::int64_t total_bytes = 0;
  double sim_clock_seconds = 0.0;  ///< sim clock at last completion

  /// Nearest-rank percentile of completed-request latency, p in [0, 100].
  /// Returns 0 when nothing completed.
  [[nodiscard]] double latency_percentile(double p) const;

  /// Nearest-rank percentile of queueing delay (admission -> cycle start).
  [[nodiscard]] double queue_wait_percentile(double p) const;

  /// Completed requests per simulated hour (0 when the clock never moved).
  [[nodiscard]] double requests_per_hour() const;

  /// Deterministic JSON (fixed field order, fixed float formatting).
  [[nodiscard]] std::string to_json() const;
};

/// Round-trippable fixed-precision float for JSON ("%.6f", never NaN/inf —
/// non-finite values are clamped to 0 with a "null"-free representation).
std::string json_double(double v);

}  // namespace quickdrop::serve
