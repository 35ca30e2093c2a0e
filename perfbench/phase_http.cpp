#include <atomic>
#include <cmath>
#include <exception>
#include <filesystem>
#include <optional>
#include <thread>

#include "bench.h"
#include "loadgen.h"
#include "net/api.h"
#include "net/socket.h"
#include "serve/durable.h"
#include "stats.h"
#include "store/store.h"

namespace perfbench {

namespace {

/// Mean gap between a poll's response and the same user's next poll: each
/// user polls its own request until a poll sees "completed". The mean is an
/// arbitrary choice (a client checking back ten times a second). Exponential
/// gaps matter: evenly spaced polls can keep the accept loop from ever
/// seeing the 50 ms quiet period that runs the idle hook (see NOTES.md,
/// findings).
constexpr double kPollMeanS = 0.1;

/// One UnlearnCursorCallback call on the server thread.
struct CursorEvent {
  std::int64_t enter_ns = 0;
  std::int64_t exit_ns = 0;
  int phase = 0;
  int rounds_done = 0;
  /// The round left the model bits unchanged: no update was accepted, so
  /// the round was lost and the global state carried over.
  bool lost = false;
};

/// Joins the server thread on every path out of the phase.
class ServerThread {
 public:
  explicit ServerThread(std::function<void()> body) : thread_(std::move(body)) {}
  ~ServerThread() { join(); }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  void join() {
    stop.store(true);
    if (thread_.joinable()) thread_.join();
  }
  std::atomic<bool> stop{false};

 private:
  std::thread thread_;
};

}  // namespace

HttpResult http_phase(const Federation& fed, std::shared_ptr<qd::core::QuickDrop> quickdrop,
                      const qd::nn::ModelState& trained, const HttpOptions& options,
                      SpanRecorder* recorder, Report& report) {
  HttpResult result;
  result.window_s = options.seconds;
  quickdrop->reset_forgotten();

  // Deployment: `serve --listen` defaults plus two bearer tenants.
  const std::vector<qd::net::Tenant> tenants{
      {"alice", "tok-alice-" + std::to_string(options.seed)},
      {"bob", "tok-bob-" + std::to_string(options.seed)}};
  auto io = std::make_shared<IoCounters>();
  const std::string store_path =
      options.store_dir + "/serve-" + std::to_string(options.seed) + ".qdst";
  std::optional<qd::store::Store> store;
  qd::core::UnlearnCursorCallback durable;
  if (options.durable_cursors) {
    std::filesystem::remove(store_path);
    store.emplace(store_path, counting_io_factory(io, recorder));
    durable = qd::serve::durable_cursor_callback(*store, *quickdrop);
  }

  // Everything below the server thread writes is read only after join().
  std::vector<CursorEvent> events;
  std::vector<double> commit_ms;
  std::uint64_t last_crc = 0;  // of the state the next round starts from
  qd::net::ApiConfig config;
  config.service.transport = "http";
  config.tenants = tenants;
  config.service.cursor_callback = [&](const qd::core::UnlearnCursor& cursor,
                                       const qd::nn::ModelState& state) {
    CursorEvent event{.enter_ns = now_ns(), .phase = cursor.phase,
                      .rounds_done = cursor.rounds_done};
    const std::uint64_t crc = state_crc(state);
    event.lost = crc == last_crc;
    last_crc = crc;
    if (durable) {
      SpanRecorder::Scope span(recorder, "store.commit");
      durable(cursor, state);
      commit_ms.push_back(static_cast<double>(now_ns() - event.enter_ns) * 1e-6);
    }
    event.exit_ns = now_ns();
    events.push_back(event);
  };
  qd::net::ApiService api(quickdrop, trained, config);
  qd::net::TcpListener listener(0);

  std::map<std::int64_t, double> handler_s;  // bench id -> handler seconds
  std::map<std::string, double> route_busy;
  std::vector<double> handler_us;
  const qd::net::HttpHandler handler = [&](const qd::net::HttpRequest& request) {
    const char* route = "net.handle.other";
    std::int64_t request_id = -1;
    if (request.target == "/unlearn") {
      route = "net.handle.unlearn";
    } else if (request.target.rfind("/request/", 0) == 0) {
      route = "net.handle.poll";
      const std::string id = request.target.substr(9);
      if (!id.empty() && id.size() < 18 && id.find_first_not_of("0123456789") == std::string::npos) {
        request_id = std::stoll(id);
      }
    } else if (request.target == "/metrics") {
      route = "net.handle.metrics";
    }
    SpanRecorder::Scope span(recorder, route, request_id);
    const std::int64_t t0 = now_ns();
    qd::net::HttpResponse response = api.handle(request);
    const double dt = static_cast<double>(now_ns() - t0) * 1e-9;
    if (response.status == 202) {
      if (const auto id = json_field(response.body, "id")) span.set_request(std::stoll(*id));
    }
    route_busy[route] += dt;
    handler_us.push_back(dt * 1e6);
    const std::string& bench_id = request.header("x-bench-id");
    if (!bench_id.empty()) handler_s[std::stoll(bench_id)] = dt;
    return response;
  };

  struct Drain {
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::size_t first_event;
    std::size_t end_event;
  };
  std::vector<Drain> drains;
  std::int64_t drain_calls = 0;
  std::int64_t backlog_max = 0;
  const std::function<void()> idle = [&] {
    // Queue depth as the service reports it: admitted but not completed.
    std::int64_t admitted_so_far = 0;
    for (const auto& [name, stats] : api.tenant_stats()) admitted_so_far += stats.admitted;
    const std::int64_t backlog =
        admitted_so_far - static_cast<std::int64_t>(api.report().completed.size());
    backlog_max = std::max(backlog_max, backlog);
    if (backlog > 0) last_crc = state_crc(api.state());
    const std::size_t before = events.size();
    const std::int64_t t0 = now_ns();
    {
      SpanRecorder::Scope span(recorder, "serve.drain");
      api.drain();
    }
    ++drain_calls;
    if (events.size() > before) drains.push_back(Drain{t0, now_ns(), before, events.size()});
  };

  std::exception_ptr server_error;
  int server_thread = -1;
  ServerThread server([&] {
    try {
      server_thread = SpanRecorder::this_thread();
      recorder->set_root_thread();
      qd::net::serve_http(listener, handler, idle, [&] { return server.stop.load(); });
    } catch (...) {
      server_error = std::current_exception();
    }
  });

  // The open loop, on this thread.
  ScheduleSpec spec;
  spec.seconds = options.seconds;
  spec.num_classes = fed.data.train.num_classes();
  spec.num_clients = static_cast<int>(fed.clients.size());
  for (const auto& t : tenants) spec.tokens.push_back(t.token);
  auto schedule = make_schedule(spec, options.seed);
  std::int64_t next_bench_id = 0;
  for (auto& p : schedule) p.bench_id = next_bench_id++;

  struct Admitted {
    double accepted_s = 0.0;
    std::optional<double> completed_s;
  };
  std::map<std::int64_t, Admitted> admitted;
  qd::Rng poll_rng = qd::Rng(options.seed).split(kPollGaps);
  const auto poll = [&](std::int64_t id, double after_s, const std::string& token) {
    Planned p;
    p.due_s = after_s + exponential_gap(poll_rng, kPollMeanS);
    p.op = Op::kPoll;
    p.expect = Expect::kOk;
    p.token = token;
    p.target = "/request/" + std::to_string(id);
    p.request_id = id;
    p.bench_id = next_bench_id++;
    return p;
  };
  const auto on_done = [&](const Outcome& o) -> std::vector<Planned> {
    if (!o.ok) report.fail(o.planned.target + ": " + o.error);
    if (o.planned.op == Op::kUnlearn && o.ok && o.response.status == 202) {
      const std::int64_t id = std::stoll(*json_field(o.response.body, "id"));
      admitted[id] = Admitted{.accepted_s = o.done_s};
      return {poll(id, o.done_s, o.planned.token)};
    }
    if (o.planned.op == Op::kPoll) {
      Admitted& a = admitted[o.planned.request_id];
      if (o.ok && json_field(o.response.body, "status") == "completed") {
        if (!a.completed_s) a.completed_s = o.done_s;
        return {};
      }
      return {poll(o.planned.request_id, o.done_s, o.planned.token)};
    }
    return {};
  };
  OpenLoop loop(LoopConfig{.port = listener.port(),
                           .max_in_flight = bench_threads(),
                           .seconds = options.seconds},
                std::move(schedule), on_done);
  const std::vector<Outcome> outcomes = loop.run();
  server.join();
  if (server_error) std::rethrow_exception(server_error);

  // --- end-to-end
  report.attempt(static_cast<std::int64_t>(outcomes.size()));
  std::int64_t bytes_to_server = 0;
  std::int64_t bytes_to_client = 0;
  std::vector<double> wait_ms;
  for (const Outcome& o : outcomes) {
    const double latency_ms = o.latency_s() * 1e3;
    result.latency_ms.push_back(latency_ms);
    result.lateness_ms.push_back(o.lateness_s() * 1e3);
    // Goodput counts only the seeded requests: how many polls a user sends
    // depends on how fast the server unlearns.
    if (o.ok && latency_ms <= kHttpLatencyLimitMs && o.planned.op != Op::kPoll) ++result.good;
    if (!o.ok) ++result.failed;
    bytes_to_server += o.bytes_out;
    bytes_to_client += o.bytes_in;
    const auto h = handler_s.find(o.planned.bench_id);
    if (h != handler_s.end()) wait_ms.push_back(((o.done_s - o.sent_s) - h->second) * 1e3);
  }
  result.requests = static_cast<std::int64_t>(outcomes.size());
  for (const auto& [id, a] : admitted) {
    report.attempt();
    if (!a.completed_s) {
      report.fail("request " + std::to_string(id) + " admitted but not completed by the end of the run");
      continue;
    }
    result.forget_s.push_back(*a.completed_s - a.accepted_s);
  }

  // --- per layer
  const auto served = api.report();
  result.cycles = served.cycles;
  auto& L = result.layers;
  L["net.handle.calls"] = static_cast<double>(handler_us.size());
  L["net.handle.p50_us"] = handler_us.empty() ? 0.0 : median(handler_us);
  L["net.handle.unlearn.busy_s"] = route_busy["net.handle.unlearn"];
  L["net.handle.poll.busy_s"] = route_busy["net.handle.poll"];
  L["net.handle.metrics.busy_s"] = route_busy["net.handle.metrics"];
  L["net.wait.p50_ms"] = wait_ms.empty() ? 0.0 : median(wait_ms);
  L["net.wait.tail_ms"] = wait_ms.empty() ? 0.0 : tail(wait_ms).value;
  L["net.latency_tail_ms"] = result.latency_ms.empty() ? 0.0 : tail(result.latency_ms).value;
  L["net.bytes_in"] = static_cast<double>(bytes_to_server);
  L["net.bytes_out"] = static_cast<double>(bytes_to_client);
  L["net.failed"] = static_cast<double>(result.failed);

  double drain_max = 0.0;
  for (const Drain& d : drains) {
    const double s = static_cast<double>(d.end_ns - d.start_ns) * 1e-9;
    result.drain_busy_s += s;
    drain_max = std::max(drain_max, s);
  }
  std::int64_t admitted_count = 0;
  std::int64_t rejected_count = 0;
  for (const auto& [name, stats] : api.tenant_stats()) {
    admitted_count += stats.admitted;
    rejected_count += stats.rejected;
  }
  L["serve.drain.calls"] = static_cast<double>(drain_calls);
  L["serve.drain.busy_s"] = result.drain_busy_s;
  L["serve.drain.max_s"] = drain_max;
  L["serve.cycles"] = static_cast<double>(served.cycles);
  L["serve.batch_mean"] = served.cycles > 0 ? static_cast<double>(served.completed.size()) /
                                                  static_cast<double>(served.cycles)
                                            : 0.0;
  L["serve.admitted"] = static_cast<double>(admitted_count);
  L["serve.forget_p50_s"] = result.forget_s.empty() ? 0.0 : median(result.forget_s);
  L["serve.rejected"] = static_cast<double>(rejected_count);
  L["serve.busy_share"] = result.drain_busy_s / options.seconds;
  L["serve.backlog_max"] = static_cast<double>(backlog_max);

  // Rounds and cycles from the cursor stream: a cycle starts with its first
  // SGA round; its first round is timed from the drain (or previous cycle)
  // that ran it.
  std::vector<double> round_s;
  double sga_s = 0.0;
  double recover_s = 0.0;
  std::int64_t sga_rounds = 0;
  std::int64_t lost_rounds = 0;
  std::size_t cycle = 0;
  for (const Drain& d : drains) {
    std::int64_t prev = d.start_ns;
    std::int64_t cycle_start = d.start_ns;
    for (std::size_t e = d.first_event; e < d.end_event; ++e) {
      const CursorEvent& ev = events[e];
      const bool new_cycle = ev.phase == qd::core::UnlearnCursor::kPhaseUnlearn && ev.rounds_done == 1;
      if (new_cycle && e != d.first_event) {
        if (cycle < served.completed.size()) {
          recorder->tag_request(server_thread, cycle_start, prev, served.completed[cycle].id);
        }
        ++cycle;
        cycle_start = prev;
      }
      const double s = static_cast<double>(ev.enter_ns - prev) * 1e-9;
      round_s.push_back(s);
      if (ev.lost) ++lost_rounds;
      recorder->add(Span{.name = "fl.round", .start_ns = prev, .end_ns = ev.enter_ns,
                         .thread = server_thread});
      if (ev.phase == qd::core::UnlearnCursor::kPhaseUnlearn) {
        sga_s += s;
        ++sga_rounds;
      } else {
        recover_s += s;
      }
      prev = ev.exit_ns;
    }
    if (cycle < served.completed.size()) {
      recorder->tag_request(server_thread, cycle_start, prev, served.completed[cycle].id);
    }
    ++cycle;
  }
  L["fl.rounds"] = static_cast<double>(round_s.size());
  L["fl.round.p50_s"] = round_s.empty() ? 0.0 : median(round_s);
  L["fl.round.tail_s"] = round_s.empty() ? 0.0 : tail(round_s).value;
  L["core.sga.busy_s"] = sga_s;
  L["core.recover.busy_s"] = recover_s;
  L["core.sga.rounds"] = static_cast<double>(sga_rounds);

  std::int64_t bytes_up = 0;
  std::int64_t bytes_down = 0;
  int last_cycle = -1;
  for (const auto& m : served.completed) {
    if (m.cycle == last_cycle) continue;  // per-cycle totals, shared by the batch
    last_cycle = m.cycle;
    bytes_up += m.bytes_up;
    bytes_down += m.bytes_down;
  }
  L["fl.bytes_up"] = static_cast<double>(bytes_up);
  L["fl.bytes_down"] = static_cast<double>(bytes_down);
  L["fl.lost_rounds"] = static_cast<double>(lost_rounds);
  // ApiService reports no per-round fault counts, so fl.sample_grads,
  // fl.crashed, fl.quarantined, fl.retried_rounds and fl.accepted_share stay
  // unavailable here (reported 0; see NOTES.md).
  quickdrop->reset_forgotten();

  L["store.commit.calls"] = static_cast<double>(commit_ms.size());
  double commit_total = 0.0;
  for (const double ms : commit_ms) commit_total += ms;
  L["store.commit.busy_s"] = commit_total * 1e-3;
  L["store.commit.p50_ms"] = commit_ms.empty() ? 0.0 : median(commit_ms);
  L["store.syncs"] = static_cast<double>(io->syncs);
  L["store.bytes_written"] = static_cast<double>(io->bytes_written);
  if (store) {
    store.reset();
    L["store.file_bytes"] = static_cast<double>(std::filesystem::file_size(store_path));
    std::filesystem::remove(store_path);
  }
  std::vector<double> lateness = result.lateness_ms;
  L["gen.lateness_p50_ms"] = lateness.empty() ? 0.0 : median(lateness);
  L["gen.lateness_tail_ms"] = lateness.empty() ? 0.0 : tail(lateness).value;
  return result;
}

}  // namespace perfbench
