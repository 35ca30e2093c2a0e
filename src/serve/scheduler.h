// Pluggable scheduling policies over the admission queue.
//
// A scheduler looks at the pending requests (all of which have arrived by
// the service's simulated clock) and picks the ids to serve in the next
// unlearn/recover cycle. Priority picks exactly one request; the coalescing
// batcher merges the pending requests, in admission order and up to
// max_batch of them, into a single cycle — one SGA pass over the union
// forget set plus one recovery pass — which is where the service wins its
// throughput (k merged requests cost one cycle instead of k). Coalesce with
// max_batch 1 is the serial, earliest-admitted-first baseline (bench/fig4's
// sequential loop), and the service's default.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/request.h"

namespace quickdrop::serve {

enum class SchedulerPolicy {
  kPriority,  ///< highest priority first (ties: earliest admission)
  kCoalesce,  ///< merge up to max_batch pending requests into one cycle
};

/// "priority" | "coalesce".
const char* policy_name(SchedulerPolicy policy);
/// Inverse of policy_name(). Throws std::invalid_argument on anything else.
SchedulerPolicy policy_from_name(const std::string& name);

class Scheduler {
 public:
  /// `max_batch` caps a coalesced cycle's size (0 = unlimited); ignored by
  /// the priority policy.
  explicit Scheduler(SchedulerPolicy policy, int max_batch = 0);

  [[nodiscard]] SchedulerPolicy policy() const { return policy_; }

  /// Ids of the requests to serve next, in admission order. Empty iff
  /// `pending` is empty.
  [[nodiscard]] std::vector<std::int64_t> next_batch(
      const std::vector<ServiceRequest>& pending) const;

 private:
  SchedulerPolicy policy_;
  int max_batch_;
};

}  // namespace quickdrop::serve
