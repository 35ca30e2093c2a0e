// qd_perfbench — the repository's end-to-end benchmark.
//
//   qd_perfbench --workload train|serve_http --seed N --seconds S
//                --trace 0|1 [--work-dir DIR] [--trace-out FILE]
//
// Prints notes and a metric table, then one JSON line: with --trace 0 every
// end-to-end metric, with --trace 1 every per-layer metric. NOTES.md maps
// the metrics to the layers and says why each workload exists.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "stats.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

constexpr int kSetupSamples = 9;
/// Every class and every client once.
constexpr std::size_t kAllRequests = 20;

/// The work of one run at --seconds 20; counts and the HTTP window scale
/// with --seconds. Each workload gives most of its run to its own path.
struct Sizes {
  int train_repetitions;  ///< six-round trainings, about 4.5 s each
  int unlearn_passes;     ///< passes over the 20 requests, about 9 s each
  double http_share;      ///< HTTP window as a share of --seconds
};

Sizes sizes(const RunArgs& args) {
  const Sizes base = args.workload == "train" ? Sizes{5, 2, 0.75} : Sizes{2, 2, 1.1};
  const double scale = args.seconds / 20.0;
  const auto count = [scale](int n) {
    return std::max(1, static_cast<int>(std::lround(n * scale)));
  };
  return Sizes{count(base.train_repetitions), count(base.unlearn_passes), base.http_share};
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

FederationSpec deployment(const RunArgs& args) {
  FederationSpec spec;
  if (args.workload == "serve_http") {
    // The deployment only serve_http runs: int8 update transport and a
    // crash + corrupt-upload fault plan on every phase.
    spec.int8_transport = true;
    spec.fault_crash = 0.05;
    spec.fault_corrupt = 0.05;
  }
  return spec;
}

/// Builds the federation and coordinator kSetupSamples times; the samples
/// are the set-up time the run reports.
std::vector<double> measure_setup(const FederationSpec& spec, SpanRecorder* recorder) {
  std::vector<double> samples;
  for (int i = 0; i < kSetupSamples; ++i) {
    const std::int64_t t0 = now_ns();
    const Federation fed = build_federation(spec, recorder);
    const auto quickdrop = make_quickdrop(fed, recorder);
    samples.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return samples;
}

/// A coordinator over `train`'s trained synthetic stores with the `unlearn`
/// configuration: fp32 transport and no faults. Every workload serves its
/// in-process requests through one of these. Under the serve_http fault
/// plan, a client-level request can finish without forgetting (NOTES.md,
/// findings), which would make the in-process quality checks fail there.
std::shared_ptr<qd::core::QuickDrop> unlearn_coordinator(const TrainResult& train,
                                                         SpanRecorder* recorder) {
  Federation plain = *train.fed;
  plain.config.faults = qd::fl::FaultPlan();
  plain.config.transport = qd::fl::TransportConfig();
  std::shared_ptr<qd::core::QuickDrop> quickdrop = make_quickdrop(plain, recorder);
  quickdrop->load_stores(train.quickdrop->stores());
  return quickdrop;
}

double accepted_share(const qd::fl::CostMeter& cost, std::int64_t state_bytes) {
  const std::int64_t participants =
      (state_bytes > 0 ? cost.bytes_down / state_bytes : 0) + cost.crashed_clients;
  if (participants == 0) return 1.0;
  const std::int64_t rejected =
      cost.crashed_clients + cost.straggler_timeouts + cost.quarantined_updates;
  return static_cast<double>(participants - rejected) / static_cast<double>(participants);
}

// ---------------------------------------------------------------------------
// --trace 0: every end-to-end metric

void run_measured(const RunArgs& args, Report& report) {
  const FederationSpec spec = deployment(args);
  SpanRecorder off(false);
  const auto setup = measure_setup(spec, &off);

  const Sizes size = sizes(args);

  TrainOptions train_options;
  train_options.federation = spec;
  train_options.store_dir = args.work_dir;
  train_options.checkpoint_every_round = true;
  train_options.repetitions = size.train_repetitions;
  TrainResult train = train_phase(train_options, &off, report);

  // In-process unlearning from the trained state.
  const auto requests = request_sequence(*train.fed, args.seed, kAllRequests);
  const UnlearnResult unlearn =
      unlearn_phase(*train.fed, *unlearn_coordinator(train, &off), train.state, requests,
                    size.unlearn_passes, &off, report);

  // The HTTP service over the trained coordinator.
  HttpOptions http_options;
  http_options.seed = args.seed;
  http_options.store_dir = args.work_dir;
  http_options.durable_cursors = args.workload == "serve_http";
  http_options.seconds = size.http_share * args.seconds;
  const HttpResult http =
      http_phase(*train.fed, train.quickdrop, train.state, http_options, &off, report);

  const Tail unlearn_tail = tail(unlearn.request_s);
  // Two HTTP figures spread too far between runs to carry a bound (0.5 and
  // 0.25 of their medians over ten seeds): the latency tail, set by the few
  // requests that land in the longest unlearning cycles, and the forget
  // latency, a median of a dozen cycles. They are printed here and reported
  // per layer as net.latency_tail_ms and serve.forget_p50_s.
  const Tail http_tail = tail(http.latency_ms);
  report.note("http latency tail: " + std::to_string(http_tail.value) + " ms (p" +
              std::to_string(http_tail.percentile) + " of " + std::to_string(http_tail.samples) +
              ")");
  report.note("forget latency p50: " +
              std::to_string(http.forget_s.empty() ? 0.0 : median(http.forget_s)) + " s over " +
              std::to_string(http.forget_s.size()) + " admitted requests");
  report.note("pool threads: " + std::to_string(qd::num_threads()));
  report.metric("setup_s", median(setup), "s",
                "median of " + std::to_string(setup.size()) + " set-ups");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  // The reciprocal of the median round: robust to bursts of machine noise.
  report.metric("train_rounds_per_s", 1.0 / median(train.round_total_s), "1/s",
                "median of " + std::to_string(train.round_total_s.size()) + " rounds");
  report.metric("train_test_acc", mean(train.accuracy), "ratio");
  report.metric("unlearn_p50_s", median(unlearn.request_s), "s",
                std::to_string(unlearn.request_s.size()) + " requests");
  report.metric("unlearn_tail_s", unlearn_tail.value, "s",
                "p" + std::to_string(unlearn_tail.percentile) + " of " +
                    std::to_string(unlearn_tail.samples));
  // F-Set accuracy sits near zero once a target is erased, so its share of
  // the median cannot carry a bound; forget_score = mean(1 - F-Set / R-Set)
  // is near one and drops when forgetting or retention degrades.
  std::vector<double> score;
  for (std::size_t i = 0; i < unlearn.fset.size(); ++i) {
    score.push_back(unlearn.rset[i] > 0.0 ? 1.0 - unlearn.fset[i] / unlearn.rset[i] : 0.0);
  }
  report.note("mean F-Set accuracy " + std::to_string(mean(unlearn.fset)) + " over " +
              std::to_string(unlearn.fset.size()) + " requests");
  report.metric("forget_score", mean(score), "ratio",
                std::to_string(unlearn.fset.size()) + " distinct requests");
  report.metric("rset_acc", mean(unlearn.rset), "ratio");
  report.metric("http_p50_ms", median(http.latency_ms), "ms",
                std::to_string(http.latency_ms.size()) + " requests");
  report.metric("http_goodput_per_s", static_cast<double>(http.good) / http.window_s, "1/s",
                "within " + std::to_string(static_cast<int>(kHttpLatencyLimitMs)) + " ms");
}

// ---------------------------------------------------------------------------
// --trace 1: every per-layer metric

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in BENCHMARK.json order.
constexpr LayerMetric kLayerMetrics[] = {
    {"data.generate_s", "s"},        {"core.init_s", "s"},
    {"core.distill.busy_s", "s"},    {"core.distill.share", "ratio"},
    {"fl.distill_sample_grads", "count"},
    {"nn.forward.calls", "count"},   {"nn.forward.rows", "count"},
    {"nn.forward.busy_s", "s"},      {"core.sga.busy_s", "s"},
    {"core.recover.busy_s", "s"},    {"core.sga.rounds", "count"},
    {"fl.round.p50_s", "s"},         {"fl.round.tail_s", "s"},
    {"fl.rounds", "count"},          {"fl.sample_grads", "count"},
    {"fl.bytes_up", "bytes"},        {"fl.bytes_down", "bytes"},
    {"fl.crashed", "count"},         {"fl.quarantined", "count"},
    {"fl.retried_rounds", "count"},  {"fl.lost_rounds", "count"},
    {"fl.accepted_share", "ratio"},  {"store.commit.calls", "count"},
    {"store.commit.busy_s", "s"},    {"store.commit.p50_ms", "ms"},
    {"store.syncs", "count"},        {"store.bytes_written", "bytes"},
    {"store.file_bytes", "bytes"},   {"serve.drain.calls", "count"},
    {"serve.drain.busy_s", "s"},     {"serve.drain.max_s", "s"},
    {"serve.cycles", "count"},       {"serve.batch_mean", "count"},
    {"serve.admitted", "count"},     {"serve.rejected", "count"},
    {"serve.forget_p50_s", "s"},    {"serve.busy_share", "ratio"},
    {"serve.backlog_max", "count"},
    {"net.handle.calls", "count"},   {"net.handle.p50_us", "us"},
    {"net.handle.unlearn.busy_s", "s"}, {"net.handle.poll.busy_s", "s"},
    {"net.handle.metrics.busy_s", "s"}, {"net.wait.p50_ms", "ms"},
    {"net.wait.tail_ms", "ms"},      {"net.latency_tail_ms", "ms"},      {"net.bytes_in", "bytes"},
    {"net.bytes_out", "bytes"},      {"net.failed", "count"},
    {"metrics.eval.busy_s", "s"},    {"gen.lateness_p50_ms", "ms"},
    {"gen.lateness_tail_ms", "ms"},  {"trace.overhead_share", "ratio"},
};

void fl_cost_layers(const qd::fl::CostMeter& cost, std::int64_t state_bytes,
                    std::map<std::string, double>& L) {
  L["fl.rounds"] = cost.rounds;
  L["fl.sample_grads"] = static_cast<double>(cost.sample_grads);
  L["fl.distill_sample_grads"] = static_cast<double>(cost.distill_sample_grads);
  L["fl.bytes_up"] = static_cast<double>(cost.bytes_up);
  L["fl.bytes_down"] = static_cast<double>(cost.bytes_down);
  L["fl.crashed"] = static_cast<double>(cost.crashed_clients);
  L["fl.quarantined"] = static_cast<double>(cost.quarantined_updates);
  L["fl.retried_rounds"] = static_cast<double>(cost.retried_rounds);
  L["fl.lost_rounds"] = static_cast<double>(cost.lost_rounds);
  L["fl.accepted_share"] = accepted_share(cost, state_bytes);
}

void round_layers(const std::vector<double>& round_s, std::map<std::string, double>& L) {
  if (round_s.empty()) return;
  L["fl.round.p50_s"] = median(round_s);
  L["fl.round.tail_s"] = tail(round_s).value;
}

void run_traced(const RunArgs& args, Report& report) {
  const FederationSpec spec = deployment(args);
  SpanRecorder off(false);
  SpanRecorder on(true);
  on.set_root_thread();
  std::map<std::string, double> L;
  for (const auto& m : kLayerMetrics) L[m.name] = 0.0;
  (void)measure_setup(spec, &on);

  TrainOptions train_options;
  train_options.federation = spec;
  train_options.store_dir = args.work_dir;
  const std::string& w = args.workload;
  if (w == "train") {
    // Training and half the in-process requests, each untraced and then
    // traced (a coordinator whose factory hands out traced modules): the
    // traced bits must match.
    train_options.checkpoint_every_round = true;
    const TrainResult plain = train_phase(train_options, &off, report);
    const TrainResult traced = train_phase(train_options, &on, report);
    report.check(plain.crc == traced.crc, "traced training reproduces the untraced bits");
    const auto requests = request_sequence(*plain.fed, args.seed, kAllRequests / 2);
    const UnlearnResult plain_u = unlearn_phase(*plain.fed, *unlearn_coordinator(plain, &off),
                                                plain.state, requests, 1, &off, report);
    const UnlearnResult traced_u = unlearn_phase(*plain.fed, *unlearn_coordinator(plain, &on),
                                                 plain.state, requests, 1, &on, report);
    report.check(plain_u.crc == traced_u.crc, "traced unlearning reproduces the untraced bits");

    fl_cost_layers(traced.cost, qd::nn::state_bytes(traced.state), L);
    round_layers(traced.round_s, L);
    L["core.distill.busy_s"] = traced.distill_s;
    L["core.distill.share"] = traced.distill_s / (qd::num_threads() * traced.train_s);
    L["core.sga.busy_s"] = traced_u.sga_s;
    L["core.recover.busy_s"] = traced_u.recover_s;
    L["core.sga.rounds"] = traced_u.sga_rounds;
    L["store.commit.calls"] = static_cast<double>(traced.commits);
    L["store.syncs"] = static_cast<double>(traced.io.syncs);
    L["store.bytes_written"] = static_cast<double>(traced.io.bytes_written);
    L["store.file_bytes"] = static_cast<double>(traced.file_bytes);
    const auto sum = [](const std::vector<double>& v) {
      double total = 0.0;
      for (const double x : v) total += x;
      return total;
    };
    L["trace.overhead_share"] = (traced.train_s + sum(traced_u.request_s)) /
                                    (plain.train_s + sum(plain_u.request_s)) -
                                1.0;
  } else {
    // The HTTP phase twice, over an untraced and a traced coordinator
    // loaded with the same trained stores.
    const TrainResult fixture = train_phase(train_options, &off, report);
    HttpOptions http_options;
    http_options.seed = args.seed;
    http_options.store_dir = args.work_dir;
    http_options.durable_cursors = true;
    http_options.seconds = sizes(args).http_share * args.seconds / 2;
    const HttpResult plain =
        http_phase(*fixture.fed, fixture.quickdrop, fixture.state, http_options, &off, report);
    std::shared_ptr<qd::core::QuickDrop> traced_qd = make_quickdrop(*fixture.fed, &on);
    traced_qd->load_stores(fixture.quickdrop->stores());
    const HttpResult traced =
        http_phase(*fixture.fed, traced_qd, fixture.state, http_options, &on, report);
    for (const auto& [name, value] : traced.layers) L[name] = value;
    report.note("unavailable on serve_http (reported 0): fl.sample_grads, fl.crashed, "
                "fl.quarantined, fl.retried_rounds, fl.accepted_share");
    const double plain_cycle = plain.drain_busy_s / std::max(1, plain.cycles);
    const double traced_cycle = traced.drain_busy_s / std::max(1, traced.cycles);
    L["trace.overhead_share"] = traced_cycle / plain_cycle - 1.0;
  }

  // Layers timed by spans.
  const auto layers = layer_times(on.spans());
  const auto find = [&](const char* name) -> const LayerTime* {
    const auto it = layers.find(name);
    return it == layers.end() ? nullptr : &it->second;
  };
  if (const auto* t = find("data.generate")) L["data.generate_s"] = median(t->durations_s);
  if (const auto* t = find("core.init")) L["core.init_s"] = median(t->durations_s);
  if (const auto* t = find("nn.forward")) {
    L["nn.forward.calls"] = static_cast<double>(t->calls);
    L["nn.forward.rows"] = static_cast<double>(t->rows);
    L["nn.forward.busy_s"] = t->busy_s;
  }
  if (const auto* t = find("metrics.eval")) L["metrics.eval.busy_s"] = t->busy_s;
  if (w == "train") {
    if (const auto* t = find("store.commit")) {
      L["store.commit.busy_s"] = t->busy_s;
      std::vector<double> ms;
      for (const double s : t->durations_s) ms.push_back(s * 1e3);
      L["store.commit.p50_ms"] = median(ms);
    }
  }
  for (const auto& [name, t] : layers) {
    report.note("span " + name + ": " + std::to_string(t.calls) + " calls, busy " +
                std::to_string(t.busy_s) + " s, self " + std::to_string(t.self_s) + " s");
  }
  for (const auto& m : kLayerMetrics) report.metric(m.name, L[m.name], m.unit);
  if (!args.trace_path.empty()) on.write_jsonl(args.trace_path);
}

RunArgs parse_args(int argc, char** argv) {
  RunArgs args;
  args.work_dir = ".bench_build/work";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || (args.workload != "train" && args.workload != "serve_http")) {
    throw std::invalid_argument("--workload must be train or serve_http");
  }
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return args;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const RunArgs args = parse_args(argc, argv);
    qd::set_log_level(qd::LogLevel::kError);
    qd::set_num_threads(bench_threads());
    std::filesystem::create_directories(args.work_dir);
    Report report;
    if (args.trace) {
      run_traced(args, report);
    } else {
      run_measured(args, report);
    }
    report.print();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qd_perfbench: %s\n", e.what());
    return 1;
  }
}
