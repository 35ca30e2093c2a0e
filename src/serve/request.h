// Typed unlearning-service requests (the serve/ subsystem's wire format).
//
// Wraps core/request.h's two kinds (class-level and client-level, paper §3)
// in the service-side lifecycle fields: a stable id (assigned at admission),
// the simulated arrival time of the request, and a scheduling priority.
// Sample-level erasure (paper §5.1) is not served; it lives in
// core/sample_level.h. Requests round-trip through a line-oriented text form
// so whole traces can be dumped and replayed bit-for-bit (see serve/trace.h).
#pragma once

#include <cstdint>
#include <string>

#include "core/request.h"

namespace quickdrop::serve {

/// Granularity of a right-to-be-forgotten request.
enum class RequestKind {
  kClass,   ///< erase one class across all clients
  kClient,  ///< erase one client's entire contribution
};

/// "class" | "client".
const char* kind_name(RequestKind kind);
/// Inverse of kind_name(). Throws std::invalid_argument on anything else.
RequestKind kind_from_name(const std::string& name);

/// One unlearning request as seen by the service.
struct ServiceRequest {
  /// Unique, monotonically increasing id assigned by the admission queue;
  /// -1 until admitted.
  std::int64_t id = -1;
  RequestKind kind = RequestKind::kClass;
  /// Class id (kClass) or client id (kClient).
  int target = 0;
  /// Simulated arrival time in seconds since service start.
  double arrival_seconds = 0.0;
  /// Scheduling priority (higher runs first under the priority policy).
  int priority = 0;

  /// The core counterpart driving QuickDrop.
  [[nodiscard]] core::UnlearningRequest to_core() const;

  /// Human-readable one-liner, e.g. "#3 class 5 @t=12.5s".
  [[nodiscard]] std::string describe() const;
};

/// One trace line: `<arrival> <kind> <target> [prio=<p>]`.
/// The arrival time is formatted with enough digits to round-trip exactly.
std::string format_request(const ServiceRequest& request);

/// Inverse of format_request(). Throws std::invalid_argument on malformed
/// input (unknown kind, garbage fields).
ServiceRequest parse_request(const std::string& line);

}  // namespace quickdrop::serve
