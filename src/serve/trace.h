// Seeded arrival-process generation and replayable trace files.
//
// A trace is the service's workload: a time-ordered list of ServiceRequests.
// Traces are either generated from a Poisson-style arrival process (seeded
// Rng => the same seed always yields the identical trace, bit for bit) or
// loaded from the line-oriented text form written by save_trace(), so any
// observed workload can be replayed exactly — the basis of the determinism
// contract "identical trace + seed => identical final model and metrics".
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "serve/request.h"
#include "util/rng.h"

namespace quickdrop::serve {

/// Malformed, truncated, or garbage trace input. Mirrors nn/state.h
/// StateError: derives from std::invalid_argument so generic catch sites keep
/// working, while carrying the 1-based line number of the offending input so
/// a hand-edited trace error is pinpointable.
struct TraceError : std::invalid_argument {
  TraceError(int line, const std::string& what)
      : std::invalid_argument("trace line " + std::to_string(line) + ": " + what),
        line_number(line) {}
  int line_number;
};

/// Parameters of the synthetic arrival process.
struct ArrivalConfig {
  int num_requests = 8;
  /// Mean of the exponential inter-arrival gap (Poisson process); the
  /// service CLI exposes this as --arrival-rate in requests/hour.
  double mean_interarrival_seconds = 120.0;
  /// Fraction of client-level requests; the rest are class-level.
  double client_fraction = 0.25;
  int num_classes = 10;
  int num_clients = 10;
  /// Priorities are drawn uniformly from [0, priority_levels); 1 keeps every
  /// request at priority 0 (admission order under every policy).
  int priority_levels = 1;
  /// When false (default) targets are drawn without replacement per kind, so
  /// a generated trace never contains requests the validator must reject as
  /// duplicates; generation stops early if targets run out. When true,
  /// targets are drawn with replacement (rejection-path workloads).
  bool allow_duplicates = false;
};

/// Generates a time-ordered trace from the arrival process. Deterministic in
/// (config, rng state). Throws std::invalid_argument on nonsensical config.
std::vector<ServiceRequest> generate_trace(const ArrivalConfig& config, Rng& rng);

/// One request per line, in trace order (see serve/request.h for the format).
std::string format_trace(const std::vector<ServiceRequest>& trace);

/// Inverse of format_trace(). Blank lines and '#' comment lines are skipped.
/// Requests are re-sorted by arrival time (stable), so hand-edited traces
/// need not be pre-sorted. Malformed lines, over-long lines (> 4096 bytes —
/// a binary file fed in by mistake), and a missing final newline (the
/// signature of a mid-line truncated file) all throw TraceError with the
/// offending line number; no input can make parsing crash or yield a
/// silently-shortened trace.
std::vector<ServiceRequest> parse_trace(const std::string& text);

/// File round-trip. save_trace writes atomically (tmp + fsync + rename), so
/// a crash mid-save never leaves a torn trace. Throws std::runtime_error on
/// I/O failure.
void save_trace(const std::vector<ServiceRequest>& trace, const std::string& path);
std::vector<ServiceRequest> load_trace(const std::string& path);

}  // namespace quickdrop::serve
