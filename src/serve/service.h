// The unlearning request service: a simulated-time event loop over
// (trace → admission queue → scheduler → executor → metrics).
//
// The loop is strictly deterministic: the simulated clock advances either to
// the next trace arrival (when idle) or by the executor's CostModel seconds
// (when serving), and every decision depends only on (trace, seed, config).
// Identical inputs therefore yield a bitwise-identical final model and
// report at any --threads count, including under an active fault plan.
//
// run(trace) is built from two primitives, admit() and run_cycle(), which
// the HTTP front end (net/api.h) drives directly: there is one serving loop,
// and a trace POSTed in order and drained lands on the same bits.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "serve/executor.h"
#include "serve/metrics.h"
#include "serve/scheduler.h"
#include "serve/trace.h"

namespace quickdrop::serve {

/// Hook evaluated after each cycle for every request it served; fills the
/// accuracy fields of `metrics` (e.g. F-Set / R-Set accuracy against a test
/// set — see bench/ext_request_service.cpp). Optional and purely
/// observational.
using RequestEvaluator =
    std::function<void(const ServiceRequest& request, const nn::ModelState& state,
                       RequestMetrics& metrics)>;

struct ServiceConfig {
  /// Default: one request per cycle in admission order.
  SchedulerPolicy policy = SchedulerPolicy::kCoalesce;
  int max_batch = 1;  ///< coalescing cap, 0 = unlimited
  CostModel cost_model;
  /// Forwarded to the executor for mid-request checkpointing.
  core::UnlearnCursorCallback cursor_callback;
  RequestEvaluator evaluator;
  /// Transport label stamped into the report: "inproc" for trace replay,
  /// "http" when net/api.h drives the service.
  std::string transport = "inproc";
};

/// Outcome of admitting one request: the validation decision and, when
/// accepted, the id the queue assigned (-1 on rejection).
struct Admission {
  AdmissionDecision decision;
  std::int64_t id = -1;
};

class UnlearningService {
 public:
  /// `initial` is the trained global model the first cycle starts from.
  UnlearningService(std::shared_ptr<core::QuickDrop> quickdrop, nn::ModelState initial,
                    ServiceConfig config);

  /// Drains the whole trace and returns the aggregate report: fast-forward
  /// the sim clock to the next arrival when idle, admit every request due by
  /// the clock, serve one cycle, repeat. May be called once per instance.
  ServiceReport run(const std::vector<ServiceRequest>& trace);

  /// Validates `request` against the deployment and the queue at the current
  /// sim clock and, on acceptance, enqueues it. The request keeps its own
  /// arrival_seconds, which must not be later than clock_seconds().
  Admission admit(const ServiceRequest& request);

  /// Serves one scheduler batch from the queue: one unlearn/recover cycle,
  /// advancing the sim clock by its CostModel seconds. Returns the metrics of
  /// the requests it completed (valid until the next cycle); empty when the
  /// queue is.
  std::span<const RequestMetrics> run_cycle();

  /// Global model after the last completed cycle.
  [[nodiscard]] const nn::ModelState& state() const { return state_; }
  [[nodiscard]] const AdmissionQueue& queue() const { return queue_; }
  [[nodiscard]] double clock_seconds() const { return report_.sim_clock_seconds; }
  /// Completed requests in completion order.
  [[nodiscard]] const std::vector<RequestMetrics>& completed() const {
    return report_.completed;
  }

  /// Snapshot of the run so far.
  [[nodiscard]] ServiceReport report() const;

 private:
  std::shared_ptr<core::QuickDrop> quickdrop_;
  nn::ModelState state_;
  ServiceConfig config_;
  Scheduler scheduler_;
  Executor executor_;
  AdmissionQueue queue_;
  /// Everything but `rejected` (kept by the queue); sim_clock_seconds is the
  /// service clock.
  ServiceReport report_;
};

}  // namespace quickdrop::serve
