// Executes a scheduled batch through core/QuickDrop's unlearn/recover cycle.
//
// The executor is the bridge between the service's request-level world and
// the coordinator's dataset-level world: each request kind the service
// admits (class or client) maps one-to-one onto a core::UnlearningRequest.
// It also owns the deterministic cost model: service latency is *simulated*
// seconds derived from the cycle's cost counters (rounds, sample gradients,
// fault backoff) — never wall clock — so the metrics JSON is bitwise
// identical at any --threads count.
#pragma once

#include <memory>
#include <vector>

#include "core/quickdrop.h"
#include "serve/request.h"

namespace quickdrop::serve {

/// Converts a phase's cost counters into simulated seconds.
struct CostModel {
  double seconds_per_round = 2.0;         ///< per-round coordination overhead
  double seconds_per_sample_grad = 1e-4;  ///< per sample-gradient computation

  [[nodiscard]] double seconds(const core::PhaseStats& stats) const {
    return static_cast<double>(stats.rounds) * seconds_per_round +
           static_cast<double>(stats.cost.sample_grads) * seconds_per_sample_grad +
           stats.cost.sim_backoff_seconds;
  }
};

/// Outcome of one unlearn/recover cycle over a batch of requests.
struct ExecutionResult {
  nn::ModelState state;           ///< global model after recovery
  core::PhaseStats unlearn_stats;
  core::PhaseStats recovery_stats;
  double sim_seconds = 0.0;       ///< CostModel seconds for the whole cycle
};

class Executor {
 public:
  Executor(std::shared_ptr<core::QuickDrop> quickdrop, CostModel cost_model)
      : quickdrop_(std::move(quickdrop)), cost_model_(cost_model) {}

  /// Runs one SGA + recovery cycle over `batch` starting from `state`.
  /// `cursor_callback`/`resume` thread straight through to
  /// QuickDrop::unlearn_batch for mid-request checkpoint and resume.
  ExecutionResult execute(const nn::ModelState& state, const std::vector<ServiceRequest>& batch,
                          const core::UnlearnCursorCallback& cursor_callback = {},
                          const core::UnlearnCursor* resume = nullptr);

  [[nodiscard]] const CostModel& cost_model() const { return cost_model_; }
  [[nodiscard]] core::QuickDrop& quickdrop() { return *quickdrop_; }

 private:
  std::shared_ptr<core::QuickDrop> quickdrop_;
  CostModel cost_model_;
};

}  // namespace quickdrop::serve
