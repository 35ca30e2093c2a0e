// Admission-time request validation.
//
// Before the fault-tolerant runtime without this layer, a bad request either
// threw deep inside a phase (class id out of range) or silently wasted a full
// SGA+recovery cycle (unlearning an already-forgotten class). The validator
// front-loads every such check into a structured decision with a stable
// reject reason, so callers can count, log and unit-test each failure mode.
#pragma once

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "serve/request.h"

namespace quickdrop::serve {

/// Why a request was refused admission.
enum class RejectReason {
  kTargetOutOfRange,   ///< class/client id outside the deployment
  kAlreadyForgotten,   ///< target was erased by an earlier request
  kDuplicatePending,   ///< an identical request is already queued
  kEmptyForgetSet,     ///< no synthetic data exists for the target
};

/// Stable lower-case token, e.g. "already-forgotten" (used in logs/JSON).
const char* reject_reason_name(RejectReason reason);

/// Outcome of validating one request.
struct AdmissionDecision {
  bool accepted = true;
  RejectReason reason = RejectReason::kTargetOutOfRange;  ///< valid when !accepted
  std::string message;                                    ///< human-readable detail

  static AdmissionDecision ok() { return {}; }
  static AdmissionDecision reject(RejectReason reason, std::string message) {
    return {.accepted = false, .reason = reason, .message = std::move(message)};
  }
};

/// Everything validation needs to know about the deployment and queue state.
/// Pointers are non-owning views valid for the duration of the call.
struct ValidationContext {
  int num_classes = 0;
  int num_clients = 0;
  const std::set<int>* forgotten_classes = nullptr;
  const std::set<int>* forgotten_clients = nullptr;
  /// Requests currently queued (duplicate detection); nullptr = skip.
  const std::vector<ServiceRequest>* pending = nullptr;
  /// True iff synthetic forget data exists for the request's target;
  /// empty = skip the check.
  std::function<bool(const ServiceRequest&)> has_forget_data;
};

/// Runs every admission check in a fixed order (range, already-forgotten,
/// duplicate, empty forget set) and returns the first failure, so rejection
/// reasons are deterministic.
AdmissionDecision validate_request(const ServiceRequest& request, const ValidationContext& ctx);

}  // namespace quickdrop::serve
