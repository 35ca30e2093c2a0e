#include "serve/validate.h"

namespace quickdrop::serve {

const char* reject_reason_name(RejectReason reason) {
  switch (reason) {
    case RejectReason::kTargetOutOfRange:
      return "target-out-of-range";
    case RejectReason::kAlreadyForgotten:
      return "already-forgotten";
    case RejectReason::kDuplicatePending:
      return "duplicate-pending";
    case RejectReason::kEmptyForgetSet:
      return "empty-forget-set";
  }
  return "?";
}

AdmissionDecision validate_request(const ServiceRequest& request, const ValidationContext& ctx) {
  const std::string what = std::string(kind_name(request.kind)) + " " +
                           std::to_string(request.target);

  // Range first: later checks index per-target state.
  const int limit = request.kind == RequestKind::kClass ? ctx.num_classes : ctx.num_clients;
  if (request.target < 0 || request.target >= limit) {
    return AdmissionDecision::reject(RejectReason::kTargetOutOfRange,
                                     what + " outside [0, " + std::to_string(limit) + ")");
  }

  if (request.kind == RequestKind::kClass && ctx.forgotten_classes &&
      ctx.forgotten_classes->count(request.target)) {
    return AdmissionDecision::reject(RejectReason::kAlreadyForgotten,
                                     what + " was already unlearned");
  }
  if (request.kind == RequestKind::kClient && ctx.forgotten_clients &&
      ctx.forgotten_clients->count(request.target)) {
    return AdmissionDecision::reject(RejectReason::kAlreadyForgotten,
                                     what + " was already unlearned");
  }

  if (ctx.pending) {
    for (const auto& other : *ctx.pending) {
      if (other.kind == request.kind && other.target == request.target) {
        return AdmissionDecision::reject(
            RejectReason::kDuplicatePending,
            what + " duplicates pending request #" + std::to_string(other.id));
      }
    }
  }

  if (ctx.has_forget_data && !ctx.has_forget_data(request)) {
    return AdmissionDecision::reject(RejectReason::kEmptyForgetSet,
                                     "no synthetic forget data exists for " + what);
  }
  return AdmissionDecision::ok();
}

}  // namespace quickdrop::serve
