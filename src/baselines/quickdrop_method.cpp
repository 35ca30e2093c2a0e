#include "baselines/quickdrop_method.h"

namespace quickdrop::baselines {
namespace {

StageReport to_report(const core::PhaseStats& stats) {
  StageReport r;
  r.seconds = stats.seconds;
  r.rounds = stats.rounds;
  r.data_size = stats.data_size;
  r.cost = stats.cost;
  return r;
}

}  // namespace

UnlearnOutcome QuickDropMethod::unlearn(TrainedFederation& fed,
                                        const core::UnlearningRequest& request) {
  UnlearnOutcome out;
  core::PhaseStats unlearn_stats, recovery_stats;
  // Capture the intermediate state right after the SGA stage for per-stage
  // reporting: the last round the cursor reports in the unlearn phase.
  nn::ModelState after_unlearn;
  out.state = fed.quickdrop->unlearn_batch(
      fed.global, {request}, &unlearn_stats, &recovery_stats, {},
      [&](const core::UnlearnCursor& cursor, const nn::ModelState& state) {
        if (cursor.phase == core::UnlearnCursor::kPhaseUnlearn) after_unlearn = state;
      });
  out.after_unlearn = after_unlearn.empty() ? out.state : after_unlearn;
  out.unlearn = to_report(unlearn_stats);
  out.recovery = to_report(recovery_stats);
  return out;
}

nn::ModelState QuickDropMethod::relearn(TrainedFederation& fed, const nn::ModelState& state,
                                        const core::UnlearningRequest& request,
                                        StageReport* report) {
  core::PhaseStats stats;
  nn::ModelState result = fed.quickdrop->relearn(state, request, &stats);
  if (report) *report = to_report(stats);
  return result;
}

}  // namespace quickdrop::baselines
