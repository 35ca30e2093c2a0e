#include "serve/service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/logging.h"

namespace quickdrop::serve {

UnlearningService::UnlearningService(std::shared_ptr<core::QuickDrop> quickdrop,
                                     nn::ModelState initial, ServiceConfig config)
    : quickdrop_(std::move(quickdrop)),
      state_(std::move(initial)),
      config_(std::move(config)),
      scheduler_(config_.policy, config_.max_batch),
      executor_(quickdrop_, config_.cost_model) {
  report_.policy = policy_name(scheduler_.policy());
  report_.transport = config_.transport;
  if (!quickdrop_) throw std::invalid_argument("UnlearningService: null coordinator");
  // Layout-hash compatibility gate: a state restored from the wrong
  // checkpoint (different net width/depth) must fail here, not as a shape
  // error mid-request.
  if (state_.empty() || !quickdrop_->state_layout() ||
      state_.layout()->hash() != quickdrop_->state_layout()->hash()) {
    throw std::invalid_argument(
        "UnlearningService: initial state layout does not match the coordinator's model");
  }
}

namespace {

/// The admission-validation view of a deployment (class/client ranges,
/// forgotten sets, forget-data probe over the synthetic stores). The context
/// borrows from `quickdrop`; keep it alive for the call.
ValidationContext make_validation_context(const core::QuickDrop& quickdrop) {
  ValidationContext ctx;
  ctx.num_classes = quickdrop.num_classes();
  ctx.num_clients = quickdrop.num_clients();
  ctx.forgotten_classes = &quickdrop.forgotten_classes();
  ctx.forgotten_clients = &quickdrop.forgotten_clients();
  const auto& stores = quickdrop.stores();
  ctx.has_forget_data = [&stores](const ServiceRequest& request) {
    if (request.kind == RequestKind::kClient) {
      return stores[static_cast<std::size_t>(request.target)].total_samples() > 0;
    }
    for (const auto& store : stores) {
      if (store.has_class(request.target)) return true;
    }
    return false;
  };
  return ctx;
}

}  // namespace

Admission UnlearningService::admit(const ServiceRequest& request) {
  Admission admission{.decision = queue_.admit(request, make_validation_context(*quickdrop_))};
  if (admission.decision.accepted) admission.id = queue_.pending().back().id;
  return admission;
}

std::span<const RequestMetrics> UnlearningService::run_cycle() {
  if (queue_.empty()) return {};
  const auto batch = queue_.take(scheduler_.next_batch(queue_.pending()));
  double& clock = report_.sim_clock_seconds;
  const double start = clock;
  QD_LOG_INFO << "serve: cycle " << report_.cycles << " (" << report_.policy << ") serving "
              << batch.size() << " request(s) at t=" << start;

  auto result = executor_.execute(state_, batch, config_.cursor_callback);
  state_ = std::move(result.state);
  clock += result.sim_seconds;
  const auto& sga = result.unlearn_stats;
  if (sga.forget_accuracy && !sga.target_reached) {
    QD_LOG_WARN << "serve: cycle " << report_.cycles << " ran out of SGA rounds at synthetic "
                << "forget accuracy " << *sga.forget_accuracy << ", above the target";
  }

  const std::size_t first = report_.completed.size();
  for (const auto& request : batch) {
    RequestMetrics metrics;
    metrics.id = request.id;
    metrics.kind = request.kind;
    metrics.target = request.target;
    metrics.arrival_seconds = request.arrival_seconds;
    metrics.start_seconds = start;
    metrics.completion_seconds = clock;
    metrics.unlearn_rounds = result.unlearn_stats.rounds;
    metrics.recovery_rounds = result.recovery_stats.rounds;
    metrics.bytes_up = result.unlearn_stats.cost.bytes_up + result.recovery_stats.cost.bytes_up;
    metrics.bytes_down =
        result.unlearn_stats.cost.bytes_down + result.recovery_stats.cost.bytes_down;
    metrics.batch_size = static_cast<int>(batch.size());
    metrics.cycle = report_.cycles;
    if (sga.forget_accuracy) {
      metrics.sga_forget_accuracy = *sga.forget_accuracy;
      metrics.sga_target_reached = sga.target_reached;
    }
    if (config_.evaluator) config_.evaluator(request, state_, metrics);
    report_.completed.push_back(metrics);
  }
  report_.total_fl_rounds += result.unlearn_stats.rounds + result.recovery_stats.rounds;
  report_.total_bytes += result.unlearn_stats.cost.bytes_up +
                         result.unlearn_stats.cost.bytes_down +
                         result.recovery_stats.cost.bytes_up +
                         result.recovery_stats.cost.bytes_down;
  ++report_.cycles;
  return std::span(report_.completed).subspan(first);
}

ServiceReport UnlearningService::run(const std::vector<ServiceRequest>& trace) {
  std::size_t next = 0;
  while (!queue_.empty() || next < trace.size()) {
    // Idle: fast-forward the sim clock to the next arrival.
    if (queue_.empty()) {
      report_.sim_clock_seconds =
          std::max(report_.sim_clock_seconds, trace[next].arrival_seconds);
    }
    while (next < trace.size() && trace[next].arrival_seconds <= report_.sim_clock_seconds) {
      admit(trace[next++]);
    }
    run_cycle();  // a no-op when everything due was rejected
  }
  return report();
}

ServiceReport UnlearningService::report() const {
  ServiceReport report = report_;
  report.rejected = queue_.rejected();
  return report;
}

}  // namespace quickdrop::serve
