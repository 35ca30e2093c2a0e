#include "serve/scheduler.h"

#include <stdexcept>

namespace quickdrop::serve {

const char* policy_name(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kPriority:
      return "priority";
    case SchedulerPolicy::kCoalesce:
      return "coalesce";
  }
  return "?";
}

SchedulerPolicy policy_from_name(const std::string& name) {
  if (name == "priority") return SchedulerPolicy::kPriority;
  if (name == "coalesce") return SchedulerPolicy::kCoalesce;
  throw std::invalid_argument("unknown scheduler policy '" + name + "' (priority|coalesce)");
}

Scheduler::Scheduler(SchedulerPolicy policy, int max_batch)
    : policy_(policy), max_batch_(max_batch) {
  if (max_batch < 0) throw std::invalid_argument("Scheduler: negative max_batch");
}

std::vector<std::int64_t> Scheduler::next_batch(
    const std::vector<ServiceRequest>& pending) const {
  if (pending.empty()) return {};

  if (policy_ == SchedulerPolicy::kPriority) {
    const ServiceRequest* best = &pending.front();
    for (const auto& request : pending) {
      if (request.priority > best->priority) best = &request;
      // Equal priority keeps the earlier admission (stable scan order).
    }
    return {best->id};
  }

  // Coalesce: the pending requests in admission order, up to max_batch_.
  std::vector<std::int64_t> ids;
  for (const auto& request : pending) {
    ids.push_back(request.id);
    if (max_batch_ > 0 && static_cast<int>(ids.size()) >= max_batch_) break;
  }
  return ids;
}

}  // namespace quickdrop::serve
