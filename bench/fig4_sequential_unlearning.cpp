// Reproduces Figure 4: sequential unlearning of every class in the paper's
// random order [5,8,0,3,2,4,7,9,1,6]. After each request the target class
// accuracy must fall to ~0 and stay there while the remaining classes are
// restored by recovery.
//
// The request loop runs through the serve/ stack's serial path (coalesce
// with max_batch 1, one request per cycle in admission order): each class
// becomes a ServiceRequest on a widely spaced trace (arrivals far apart, so
// every scheduler policy degenerates to one request per cycle) and the
// UnlearningService drives QuickDrop — the same machinery the request
// service bench stresses under load (see ext_request_service.cpp).
#include <cstdio>
#include <vector>

#include "common/world.h"
#include "serve/service.h"
#include "util/table.h"

namespace qd = quickdrop;

int main(int argc, char** argv) {
  qd::CliFlags flags(argc, argv);
  auto config = qd::bench::WorldConfig::from_flags(flags);
  const int max_requests = flags.get_int("requests", 10);
  flags.check_unused();

  // Late requests (when almost no retain data remains) need more SGA rounds:
  // use verified unlearning with a small cap unless overridden.
  if (config.max_unlearn_rounds == 0) config.max_unlearn_rounds = 6;

  qd::bench::print_banner("Figure 4: sequential class unlearning requests", config);
  auto world = qd::bench::build_world(config);
  const int num_classes = world.fed.test.num_classes();
  const std::vector<int> order = {5, 8, 0, 3, 2, 4, 7, 9, 1, 6};

  // One request per class, spaced far enough apart that every cycle finishes
  // before the next arrival — the serial service then replays the paper's
  // strictly sequential history.
  std::vector<qd::serve::ServiceRequest> trace;
  for (int i = 0; i < max_requests && i < static_cast<int>(order.size()); ++i) {
    const int target = order[static_cast<std::size_t>(i)];
    if (target >= num_classes) continue;
    qd::serve::ServiceRequest request;
    request.kind = qd::serve::RequestKind::kClass;
    request.target = target;
    request.arrival_seconds = 1.0e7 * static_cast<double>(i + 1);
    trace.push_back(request);
  }

  qd::TextTable table;
  std::vector<std::string> header = {"after request", "time(s)"};
  for (int c = 0; c < num_classes; ++c) header.push_back("c" + std::to_string(c));
  table.set_header(header);

  auto add_row = [&](const std::string& label, double seconds, const qd::nn::ModelState& state) {
    const auto pc = world.per_class(state);
    std::vector<std::string> row = {label, qd::fmt_double(seconds, 2)};
    for (const double a : pc) row.push_back(qd::fmt_percent(a, 1));
    table.add_row(std::move(row));
  };
  add_row("(trained)", 0.0, world.fed.global);

  // Snapshot per-class accuracy after every cycle via the service evaluator
  // (each widely spaced request is its own cycle).
  qd::serve::ServiceConfig service_config;
  service_config.policy = qd::serve::SchedulerPolicy::kCoalesce;
  service_config.max_batch = 1;
  service_config.evaluator = [&](const qd::serve::ServiceRequest& request,
                                 const qd::nn::ModelState& state,
                                 qd::serve::RequestMetrics& metrics) {
    add_row("unlearn c" + std::to_string(request.target), metrics.latency(), state);
  };
  qd::serve::UnlearningService service(world.fed.quickdrop, world.fed.global, service_config);
  const auto report = service.run(trace);

  std::printf("%s\n", table.render().c_str());

  // Invariant check: every forgotten class stays low after later requests.
  const auto pc = world.per_class(service.state());
  bool all_low = true;
  for (std::size_t i = 0; i + 1 < report.completed.size(); ++i) {
    const auto target = static_cast<std::size_t>(report.completed[i].target);
    all_low = all_low && pc[target] < 0.2;
  }
  std::printf("previously unlearned classes remain unlearned: %s\n", all_low ? "yes" : "NO");
  std::printf("served %zu requests in %d serial cycles (%d FL rounds)\n", report.completed.size(),
              report.cycles, report.total_fl_rounds);
  std::printf("paper (Fig. 4): each unlearning stage zeroes the target class; recovery restores\n"
              "the remaining classes while leaving earlier-unlearned classes at ~0%%.\n");
  return 0;
}
