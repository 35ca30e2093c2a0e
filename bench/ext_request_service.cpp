// Extension experiment: the unlearning request service under load.
//
// Replays one seeded arrival trace of class/client unlearning requests
// through the coalescing scheduler twice — serially (max_batch 1, one
// request per unlearn/recover cycle) versus batched (up to --max-batch
// pending requests merged into a single cycle, default unlimited) — and
// reports per-request SLA metrics: queue wait, p50/p95 latency,
// requests/hour, FL rounds and bytes. All latency numbers are
// *simulated* seconds from the executor's deterministic CostModel, so the
// emitted BENCH_ext_request_service.json is bitwise identical across runs
// and thread counts. The headline claim generalises Fig. 4: coalescing k
// compatible requests costs one cycle instead of k, so total FL rounds drop
// and tail latency collapses whenever requests cluster in time.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/world.h"
#include "serve/service.h"
#include "util/atomic_file.h"
#include "util/table.h"

namespace qd = quickdrop;

namespace {

qd::serve::ServiceReport run_coalesce(qd::bench::World& world,
                                      const std::vector<qd::serve::ServiceRequest>& trace,
                                      int max_batch, const qd::serve::CostModel& cost_model) {
  qd::serve::ServiceConfig config;
  config.policy = qd::serve::SchedulerPolicy::kCoalesce;
  config.max_batch = max_batch;
  config.cost_model = cost_model;
  config.evaluator = [&world](const qd::serve::ServiceRequest& request,
                              const qd::nn::ModelState& state,
                              qd::serve::RequestMetrics& metrics) {
    const auto core_request = request.to_core();
    metrics.fset_accuracy = world.fset_accuracy(state, core_request);
    metrics.rset_accuracy = world.rset_accuracy(state, core_request);
  };
  // Each run replays the same history against the same trained model:
  // unlearn/recover cycles leave the synthetic stores untouched, so only the
  // forgotten-target bookkeeping must be reset between runs.
  world.fed.quickdrop->reset_forgotten();
  qd::serve::UnlearningService service(world.fed.quickdrop, world.fed.global, config);
  return service.run(trace);
}

void print_report(const char* label, const qd::serve::ServiceReport& report) {
  std::printf("%s: policy=%s completed=%zu rejected=%zu cycles=%d fl_rounds=%d\n", label,
              report.policy.c_str(), report.completed.size(), report.rejected.size(),
              report.cycles, report.total_fl_rounds);
  std::printf("  p50 latency %.1fs | p95 latency %.1fs | %.2f requests/hour | %.1f MB\n",
              report.latency_percentile(50.0), report.latency_percentile(95.0),
              report.requests_per_hour(),
              static_cast<double>(report.total_bytes) / (1024.0 * 1024.0));

  qd::TextTable table;
  table.set_header({"id", "kind", "target", "wait(s)", "latency(s)", "batch", "cycle", "fset",
                    "rset"});
  for (const auto& m : report.completed) {
    table.add_row({std::to_string(m.id), qd::serve::kind_name(m.kind), std::to_string(m.target),
                   qd::fmt_double(m.queue_wait(), 1), qd::fmt_double(m.latency(), 1),
                   std::to_string(m.batch_size), std::to_string(m.cycle),
                   qd::fmt_percent(m.fset_accuracy, 1), qd::fmt_percent(m.rset_accuracy, 1)});
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  qd::CliFlags flags(argc, argv);
  auto config = qd::bench::WorldConfig::from_flags(flags);
  const int requests = flags.get_int("requests", 6);
  const double arrival_rate = flags.get_double("arrival-rate", 25.0);
  const int max_batch = flags.get_int("max-batch", 0);
  // Deployment-speed knobs: with rounds costing ~30 simulated seconds and
  // arrivals ~25s apart, requests cluster behind an in-flight cycle — the
  // regime where coalescing pays off.
  qd::serve::CostModel cost_model;
  cost_model.seconds_per_round = flags.get_double("sec-per-round", 30.0);
  cost_model.seconds_per_sample_grad = flags.get_double("sec-per-grad", 1e-4);
  const std::string trace_path = flags.get_string("trace", "");
  const std::string dump_trace = flags.get_string("dump-trace", "");
  const std::string out_path = flags.get_string("out", "BENCH_ext_request_service.json");
  flags.check_unused();
  if (config.max_unlearn_rounds == 0) config.max_unlearn_rounds = 6;

  qd::bench::print_banner("Extension: unlearning request service (serial vs coalescing)",
                          config);
  auto world = qd::bench::build_world(config);

  std::vector<qd::serve::ServiceRequest> trace;
  if (!trace_path.empty()) {
    trace = qd::serve::load_trace(trace_path);
    std::printf("trace: %zu requests from %s\n\n", trace.size(), trace_path.c_str());
  } else {
    qd::serve::ArrivalConfig arrivals;
    arrivals.num_requests = requests;
    arrivals.mean_interarrival_seconds = arrival_rate;
    arrivals.num_classes = world.fed.test.num_classes();
    arrivals.num_clients = config.clients;
    qd::Rng trace_rng(config.seed + 1000);
    trace = qd::serve::generate_trace(arrivals, trace_rng);
    std::printf("trace: %d generated requests, mean inter-arrival %.0fs (seed %llu)\n\n",
                requests, arrival_rate,
                static_cast<unsigned long long>(config.seed + 1000));
  }
  if (!dump_trace.empty()) {
    qd::serve::save_trace(trace, dump_trace);
    std::printf("trace written to %s\n\n", dump_trace.c_str());
  }

  const auto serial = run_coalesce(world, trace, 1, cost_model);
  print_report("serial", serial);
  const auto coalesce = run_coalesce(world, trace, max_batch, cost_model);
  print_report("coalesce", coalesce);

  qd::write_file_atomic(out_path, "{\n\"serial\": " + serial.to_json() +
                                      ",\n\"coalesce\": " + coalesce.to_json() + "}\n");
  std::printf("metrics written to %s\n", out_path.c_str());

  std::printf("\nexpected: coalescing serves clustered requests in fewer cycles (%d vs %d) and\n"
              "fewer FL rounds (%d vs %d), collapsing queue wait for late arrivals while each\n"
              "forgotten target's F-Set accuracy still drops to ~0.\n",
              coalesce.cycles, serial.cycles, coalesce.total_fl_rounds, serial.total_fl_rounds);
  return 0;
}
