// The transport axis of the bitwise contract, over the one front door: a
// trace POSTed through ApiService::handle in trace order and then drained
// must land on the same model bytes, the same report (apart from the
// "transport" label) and the same rejections, in the same order, as
// UnlearningService::run over that trace. Checked at 1 and 4 threads, with
// and without a fault plan, with no sockets.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/api.h"
#include "nn/state.h"
#include "serve/service.h"
#include "test_federation.h"

namespace quickdrop::net {
namespace {

using testing::MiniFederation;
using testing::ThreadGuard;

serve::ServiceRequest request(serve::RequestKind kind, int target, int priority = 0) {
  serve::ServiceRequest r;
  r.kind = kind;
  r.target = target;
  r.priority = priority;
  return r;  // arrival 0: HTTP admits at the sim clock, which starts at 0
}

/// Class and client requests, a duplicate of a pending request and an
/// out-of-range target, every arrival at 0.
std::vector<serve::ServiceRequest> mixed_trace() {
  using serve::RequestKind;
  return {request(RequestKind::kClass, 1),
          request(RequestKind::kClient, 2, /*priority=*/3),  // served first under kPriority
          request(RequestKind::kClass, 1),
          request(RequestKind::kClass, 99),
          request(RequestKind::kClass, 3)};
}

std::string unlearn_body(const serve::ServiceRequest& r) {
  std::string body = std::string("{\"kind\": \"") + serve::kind_name(r.kind) +
                     "\", \"target\": " + std::to_string(r.target);
  if (r.priority != 0) body += ", \"priority\": " + std::to_string(r.priority);
  return body + "}";
}

/// Drops the one line allowed to differ between the two doors.
std::string without_transport(const std::string& json) {
  std::istringstream in(json);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"transport\"") == std::string::npos) out += line + '\n';
  }
  return out;
}

struct Run {
  std::vector<std::uint8_t> state_bytes;
  std::string json;
  std::vector<std::string> rejection_reasons;  ///< admission order
  /// The refused requests as trace lines (kind, target, priority).
  std::vector<std::string> rejected_lines;
};

std::vector<std::string> rejected_lines(const serve::ServiceReport& report) {
  std::vector<std::string> lines;
  for (const auto& rejected : report.rejected) {
    lines.push_back(serve::format_request(rejected.request));
  }
  return lines;
}

core::QuickDropConfig faulted_config() {
  auto cfg = MiniFederation::config();
  fl::FaultRates rates;
  rates.crash = 0.15f;
  rates.corrupt_nan = 0.1f;
  rates.straggler = 0.1f;
  cfg.faults = fl::FaultPlan(77, rates);
  cfg.defense.min_quorum = 0.25f;
  cfg.defense.max_round_attempts = 2;
  return cfg;
}

serve::ServiceConfig service_config(serve::SchedulerPolicy policy, const char* transport) {
  serve::ServiceConfig config;
  config.policy = policy;
  config.max_batch = policy == serve::SchedulerPolicy::kCoalesce ? 2 : 0;
  config.cost_model.seconds_per_round = 50.0;
  config.transport = transport;
  return config;
}

Run run_inproc(serve::SchedulerPolicy policy, int threads, const core::QuickDropConfig& cfg) {
  set_num_threads(threads);
  MiniFederation fed;
  auto qd = std::make_shared<core::QuickDrop>(fed.factory, fed.clients, cfg, 99);
  serve::UnlearningService service(qd, qd->train(), service_config(policy, "inproc"));
  const auto report = service.run(mixed_trace());
  Run out{.state_bytes = nn::serialize_state(service.state()), .json = report.to_json(),
          .rejection_reasons = {}, .rejected_lines = rejected_lines(report)};
  for (const auto& rejected : report.rejected) {
    out.rejection_reasons.emplace_back(serve::reject_reason_name(rejected.reason));
  }
  return out;
}

Run run_http(serve::SchedulerPolicy policy, int threads, const core::QuickDropConfig& cfg) {
  set_num_threads(threads);
  MiniFederation fed;
  auto qd = std::make_shared<core::QuickDrop>(fed.factory, fed.clients, cfg, 99);
  ApiConfig config;
  config.service = service_config(policy, "http");
  ApiService api(qd, qd->train(), config);
  Run out;
  std::int64_t next_id = 0;
  for (const auto& r : mixed_trace()) {
    HttpRequest post;
    post.method = "POST";
    post.target = "/unlearn";
    post.version = "HTTP/1.1";
    post.body = unlearn_body(r);
    const auto response = api.handle(post);
    if (response.status == 202) {
      EXPECT_NE(response.body.find("\"id\": " + std::to_string(next_id++)), std::string::npos)
          << response.body;
      continue;
    }
    EXPECT_EQ(response.status, 400) << post.body;
    const std::string key = "\"reason\": \"";
    const auto at = response.body.find(key);
    EXPECT_NE(at, std::string::npos) << response.body;
    if (at == std::string::npos) continue;
    const auto start = at + key.size();
    out.rejection_reasons.push_back(
        response.body.substr(start, response.body.find('"', start) - start));
  }
  api.drain();
  out.state_bytes = nn::serialize_state(api.state());
  const auto report = api.report();
  out.json = report.to_json();
  out.rejected_lines = rejected_lines(report);
  return out;
}

void expect_same_door(serve::SchedulerPolicy policy, const core::QuickDropConfig& cfg) {
  const auto inproc = run_inproc(policy, 1, cfg);
  ASSERT_EQ(inproc.rejection_reasons,
            (std::vector<std::string>{"duplicate-pending", "target-out-of-range"}));
  for (const int threads : {1, 4}) {
    const auto http = run_http(policy, threads, cfg);
    EXPECT_TRUE(http.state_bytes == inproc.state_bytes) << "model bytes at " << threads;
    EXPECT_EQ(without_transport(http.json), without_transport(inproc.json)) << threads;
    EXPECT_NE(http.json.find("\"transport\": \"http\""), std::string::npos);
    EXPECT_EQ(http.rejection_reasons, inproc.rejection_reasons) << threads;
    EXPECT_EQ(http.rejected_lines, inproc.rejected_lines) << threads;
  }
}

TEST(HandlerReplay, BitIdenticalToInProcessAtOneAndFourThreads) {
  ThreadGuard guard;
  expect_same_door(serve::SchedulerPolicy::kCoalesce, MiniFederation::config());
}

TEST(HandlerReplay, BitIdenticalToInProcessUnderFaultPlan) {
  ThreadGuard guard;
  expect_same_door(serve::SchedulerPolicy::kPriority, faulted_config());
}

}  // namespace
}  // namespace quickdrop::net
