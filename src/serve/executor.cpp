#include "serve/executor.h"

#include <stdexcept>

namespace quickdrop::serve {

ExecutionResult Executor::execute(const nn::ModelState& state,
                                  const std::vector<ServiceRequest>& batch,
                                  const core::UnlearnCursorCallback& cursor_callback,
                                  const core::UnlearnCursor* resume) {
  if (batch.empty()) throw std::invalid_argument("Executor::execute: empty batch");
  std::vector<core::UnlearningRequest> core_batch;
  core_batch.reserve(batch.size());
  for (const auto& request : batch) core_batch.push_back(request.to_core());

  ExecutionResult result;
  result.state = quickdrop_->unlearn_batch(state, core_batch, &result.unlearn_stats,
                                           &result.recovery_stats, {}, cursor_callback, resume);
  result.sim_seconds =
      cost_model_.seconds(result.unlearn_stats) + cost_model_.seconds(result.recovery_stats);
  return result;
}

}  // namespace quickdrop::serve
