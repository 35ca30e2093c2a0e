// HTTP front door: incremental parser grammar and caps, connection serving
// over the loopback Io, and the JSON API (auth, admission, status polling,
// metrics, per-tenant accounting) driven entirely without sockets.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/api.h"
#include "net/http.h"
#include "net/io.h"
#include "test_federation.h"

namespace quickdrop::net {
namespace {

using testing::MiniFederation;
using testing::ThreadGuard;

/// Feeds `wire` to a reader through the loopback pipe and half-closes.
std::shared_ptr<Io> feed(const std::string& wire) {
  auto pair = make_loopback();
  pair.client->write_all(
      std::span(reinterpret_cast<const std::uint8_t*>(wire.data()), wire.size()));
  pair.client->finish_write();
  return pair.server;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(HttpParser, ParsesRequestLineHeadersAndBody) {
  auto io = feed(
      "POST /unlearn HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 4\r\n"
      "\r\n"
      "{}()");
  HttpConnReader reader(*io);
  const auto request = reader.next();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->method, "POST");
  EXPECT_EQ(request->target, "/unlearn");
  EXPECT_EQ(request->version, "HTTP/1.1");
  EXPECT_EQ(request->header("content-type"), "application/json");
  EXPECT_EQ(request->header("host"), "localhost");
  EXPECT_EQ(request->header("absent"), "");
  EXPECT_EQ(request->body, "{}()");
  EXPECT_FALSE(reader.next().has_value());  // clean EOF at message boundary
}

TEST(HttpParser, AcceptsBareLfAndPipelinedRequests) {
  auto io = feed(
      "GET /metrics HTTP/1.1\n\n"
      "GET /request/3 HTTP/1.1\r\n\r\n");
  HttpConnReader reader(*io);
  const auto first = reader.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->target, "/metrics");
  const auto second = reader.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->target, "/request/3");
  EXPECT_FALSE(reader.next().has_value());
}

TEST(HttpParser, MalformedInputsThrowTypedErrors) {
  const std::vector<std::string> bad = {
      "GARBAGE\r\n\r\n",                                      // no method/target/version
      "GET /\r\n\r\n",                                        // missing version
      "GET / HTTP/1.1\r\nContent-Length: x\r\n\r\n",          // non-numeric length
      "GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",         // negative length
      "GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"  // unsupported framing
  };
  for (const auto& wire : bad) {
    auto io = feed(wire);
    HttpConnReader reader(*io);
    try {
      reader.next();
      ADD_FAILURE() << "accepted: " << wire.substr(0, 40);
    } catch (const NetError& e) {
      EXPECT_EQ(e.code, NetErrorCode::kMalformedHttp) << wire.substr(0, 40);
    }
  }
}

TEST(HttpParser, TruncatedMessagesThrowClosed) {
  // Stream ends mid-head and mid-body: both are torn messages, not EOF.
  for (const char* wire :
       {"GET / HTTP/1.1\r\nHost: x", "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"}) {
    auto io = feed(wire);
    HttpConnReader reader(*io);
    EXPECT_THROW(reader.next(), NetError) << wire;
  }
}

TEST(HttpParser, EnforcesHeadAndBodyCaps) {
  const std::string huge_head =
      "GET / HTTP/1.1\r\nX-Pad: " + std::string(kMaxHttpHeadBytes, 'a') + "\r\n\r\n";
  EXPECT_THROW(HttpConnReader(*feed(huge_head)).next(), NetError);

  const std::string huge_body = "POST / HTTP/1.1\r\nContent-Length: " +
                                std::to_string(kMaxHttpBodyBytes + 1) + "\r\n\r\n";
  EXPECT_THROW(HttpConnReader(*feed(huge_body)).next(), NetError);
}

TEST(HttpParser, WriteResponseFormatsStatusAndLength) {
  auto pair = make_loopback();
  write_response(*pair.client, {.status = 202, .body = "{\"id\": 1}"});
  pair.client->finish_write();
  std::string got;
  std::uint8_t buf[256];
  while (const auto n = pair.server->read_some(buf)) {
    got.append(reinterpret_cast<const char*>(buf), n);
  }
  EXPECT_NE(got.find("HTTP/1.1 202 Accepted\r\n"), std::string::npos);
  EXPECT_NE(got.find("Content-Length: 9\r\n"), std::string::npos);
  EXPECT_NE(got.find("Content-Type: application/json\r\n"), std::string::npos);
  EXPECT_NE(got.find("\r\n\r\n{\"id\": 1}"), std::string::npos);
}

TEST(HttpParser, ServeConnAnswersMalformedWith400) {
  auto pair = make_loopback();
  const std::string wire = "GARBAGE\r\n\r\n";
  pair.client->write_all(
      std::span(reinterpret_cast<const std::uint8_t*>(wire.data()), wire.size()));
  pair.client->finish_write();
  serve_http_conn(*pair.server,
                  [](const HttpRequest&) { return HttpResponse{.status = 200}; });
  std::string got;
  std::uint8_t buf[256];
  while (const auto n = pair.client->read_some(buf)) {
    got.append(reinterpret_cast<const char*>(buf), n);
  }
  EXPECT_NE(got.find("HTTP/1.1 400"), std::string::npos);
  EXPECT_NE(got.find("malformed-http"), std::string::npos);
}

/// Io whose reads come from a prepared stream but whose writes fail the way
/// a peer that reset the connection makes TcpConn::write_all fail.
class BrokenWriteIo : public Io {
 public:
  explicit BrokenWriteIo(std::shared_ptr<Io> in) : in_(std::move(in)) {}
  std::size_t read_some(std::span<std::uint8_t> buf) override { return in_->read_some(buf); }
  void write_all(std::span<const std::uint8_t>) override {
    throw NetError(NetErrorCode::kIoFailure, "peer reset");
  }
  void finish_write() override { throw NetError(NetErrorCode::kIoFailure, "peer reset"); }

 private:
  std::shared_ptr<Io> in_;
};

TEST(HttpParser, ServeConnSurvivesPeerGoneBeforeResponse) {
  // Valid request and malformed garbage: in both cases the peer is gone by
  // response time, and the failed write must stay inside the connection.
  for (const char* wire : {"GET /ping HTTP/1.1\r\n\r\n", "GARBAGE\r\n\r\n"}) {
    BrokenWriteIo io(feed(wire));
    EXPECT_NO_THROW(serve_http_conn(
        io, [](const HttpRequest&) { return HttpResponse{.status = 200, .body = "{}"}; }))
        << wire;
  }
}

TEST(HttpParser, ServeConnTurnsHandlerExceptionsInto500) {
  auto pair = make_loopback();
  const std::string wire = "GET /boom HTTP/1.1\r\n\r\n";
  pair.client->write_all(
      std::span(reinterpret_cast<const std::uint8_t*>(wire.data()), wire.size()));
  pair.client->finish_write();
  serve_http_conn(*pair.server, [](const HttpRequest&) -> HttpResponse {
    throw std::runtime_error("handler exploded");
  });
  std::string got;
  std::uint8_t buf[256];
  while (const auto n = pair.client->read_some(buf)) {
    got.append(reinterpret_cast<const char*>(buf), n);
  }
  EXPECT_NE(got.find("HTTP/1.1 500"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tenants
// ---------------------------------------------------------------------------

TEST(Tenants, ParseTenantSpecs) {
  const auto tenants = parse_tenant_specs("acme=s3cret,beta=tok2");
  ASSERT_EQ(tenants.size(), 2u);
  EXPECT_EQ(tenants[0].name, "acme");
  EXPECT_EQ(tenants[0].token, "s3cret");
  EXPECT_EQ(tenants[1].name, "beta");
  EXPECT_EQ(tenants[1].token, "tok2");

  EXPECT_THROW(parse_tenant_specs("noequals"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_specs("=token"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_specs("name="), std::invalid_argument);
  EXPECT_THROW(parse_tenant_specs("a=1,a=2"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_specs(",a=1"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// API service (no sockets: handle()/drain() driven directly)
// ---------------------------------------------------------------------------

struct ApiFixture {
  MiniFederation fed;
  std::shared_ptr<core::QuickDrop> qd;
  std::unique_ptr<ApiService> api;

  explicit ApiFixture(const std::string& tenant_spec = "") {
    set_num_threads(1);
    qd = std::make_shared<core::QuickDrop>(fed.factory, fed.clients, MiniFederation::config(),
                                           99);
    const auto trained = qd->train();
    ApiConfig config;
    config.service.transport = "http";
    if (!tenant_spec.empty()) config.tenants = parse_tenant_specs(tenant_spec);
    api = std::make_unique<ApiService>(qd, trained, config);
  }
};

HttpRequest post_unlearn(const std::string& body, const std::string& auth = "") {
  HttpRequest request;
  request.method = "POST";
  request.target = "/unlearn";
  request.version = "HTTP/1.1";
  if (!auth.empty()) request.headers["authorization"] = auth;
  request.body = body;
  return request;
}

HttpRequest get(const std::string& target, const std::string& auth = "") {
  HttpRequest request;
  request.method = "GET";
  request.target = target;
  request.version = "HTTP/1.1";
  if (!auth.empty()) request.headers["authorization"] = auth;
  return request;
}

TEST(ApiService, QueuedThenCompletedLifecycle) {
  ThreadGuard guard;
  ApiFixture fx;

  // Admission ids are the queue's: monotonically increasing from 0.
  const auto accepted = fx.api->handle(post_unlearn(R"({"kind": "class", "target": 1})"));
  EXPECT_EQ(accepted.status, 202);
  EXPECT_NE(accepted.body.find("\"id\": 0"), std::string::npos);
  EXPECT_NE(accepted.body.find("\"status\": \"queued\""), std::string::npos);

  // Visible as queued until drain() runs the cycle.
  const auto pending = fx.api->handle(get("/request/0"));
  EXPECT_EQ(pending.status, 200);
  EXPECT_NE(pending.body.find("\"queued\""), std::string::npos);

  fx.api->drain();
  const auto done = fx.api->handle(get("/request/0"));
  EXPECT_EQ(done.status, 200);
  EXPECT_NE(done.body.find("\"completed\""), std::string::npos);
  EXPECT_TRUE(fx.qd->forgotten_classes().count(1));
  EXPECT_GT(fx.api->clock_seconds(), 0.0);

  const auto missing = fx.api->handle(get("/request/77"));
  EXPECT_EQ(missing.status, 404);
}

TEST(ApiService, RejectsBadRequestsWithTypedJson) {
  ThreadGuard guard;
  ApiFixture fx;

  // Target outside the deployment.
  const auto out_of_range = fx.api->handle(post_unlearn(R"({"kind": "class", "target": 99})"));
  EXPECT_EQ(out_of_range.status, 400);
  EXPECT_NE(out_of_range.body.find("\"rejected\""), std::string::npos);
  EXPECT_NE(out_of_range.body.find("target-out-of-range"), std::string::npos);

  // Malformed JSON, missing fields, wrong method, bad id segment.
  EXPECT_EQ(fx.api->handle(post_unlearn("{not json")).status, 400);
  EXPECT_EQ(fx.api->handle(post_unlearn(R"({"kind": "class"})")).status, 400);
  // Numbers must be integers inside int's range: no silent truncation of
  // 2.5 to class 2, and no undefined conversion of 1e300.
  for (const char* body :
       {R"({"kind": "class", "target": 2.5})", R"({"kind": "class", "target": 1, "priority": 2.5})",
        R"({"kind": "class", "target": 1e300})", R"({"kind": "class", "target": -3000000000})"}) {
    const auto bad = fx.api->handle(post_unlearn(body));
    EXPECT_EQ(bad.status, 400) << body;
    EXPECT_NE(bad.body.find("\"error\""), std::string::npos) << body;
    EXPECT_NE(bad.body.find("not an integer"), std::string::npos) << body;
  }
  // A request body has no array field, whatever its elements.
  for (const char* body :
       {R"({"kind": "class", "target": 1, "rows": [1, 1e300]})",
        R"({"kind": "client", "target": 1, "rows": [0.5]})",
        R"({"kind": "class", "target": 1, "rows": [1, 2]})",
        R"({"kind": "class", "target": 1, "rows": []})", R"({"kind": "class", "target": [1]})"}) {
    const auto bad = fx.api->handle(post_unlearn(body));
    EXPECT_EQ(bad.status, 400) << body;
    EXPECT_NE(bad.body.find("\"error\""), std::string::npos) << body;
    EXPECT_EQ(bad.body.find("\"rejected\""), std::string::npos) << body;
  }
  // Sample-level erasure is not a served kind: an unknown kind is a
  // malformed body, not an admission refusal.
  const auto sample = fx.api->handle(post_unlearn(R"({"kind": "sample", "target": 1})"));
  EXPECT_EQ(sample.status, 400);
  EXPECT_NE(sample.body.find("\"error\""), std::string::npos) << sample.body;
  EXPECT_NE(sample.body.find("unknown request kind 'sample'"), std::string::npos) << sample.body;
  EXPECT_EQ(fx.api->report().rejected.size(), 1u);  // only the out-of-range target
  EXPECT_EQ(fx.api->handle(get("/unlearn")).status, 405);
  EXPECT_EQ(fx.api->handle(get("/request/abc")).status, 400);
  // All digits but past int64: must be a 400, not an out_of_range 500.
  EXPECT_EQ(fx.api->handle(get("/request/99999999999999999999")).status, 400);
  EXPECT_EQ(fx.api->handle(get("/nowhere")).status, 404);
}

TEST(ApiService, BearerAuthGatesEveryRouteAndAccountsPerTenant) {
  ThreadGuard guard;
  ApiFixture fx("acme=s3cret,beta=tok2");

  // No/wrong credentials: 401 on every route.
  EXPECT_EQ(fx.api->handle(post_unlearn(R"({"kind": "class", "target": 1})")).status, 401);
  EXPECT_EQ(fx.api->handle(get("/metrics")).status, 401);
  EXPECT_EQ(fx.api->handle(get("/request/1", "Bearer wrong")).status, 401);
  EXPECT_EQ(fx.api->handle(get("/metrics", "Basic s3cret")).status, 401);

  // Valid tokens resolve to their tenants; admissions/rejections are
  // accounted to the caller.
  const auto ok =
      fx.api->handle(post_unlearn(R"({"kind": "class", "target": 1})", "Bearer s3cret"));
  EXPECT_EQ(ok.status, 202);
  const auto rejected =
      fx.api->handle(post_unlearn(R"({"kind": "class", "target": 99})", "Bearer tok2"));
  EXPECT_EQ(rejected.status, 400);

  fx.api->drain();
  const auto& stats = fx.api->tenant_stats();
  ASSERT_TRUE(stats.count("acme"));
  ASSERT_TRUE(stats.count("beta"));
  EXPECT_EQ(stats.at("acme").admitted, 1);
  EXPECT_EQ(stats.at("acme").completed, 1);
  EXPECT_EQ(stats.at("beta").admitted, 0);
  EXPECT_EQ(stats.at("beta").rejected, 1);

  const auto metrics = fx.api->handle(get("/metrics", "Bearer tok2"));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("\"tenants\""), std::string::npos);
  EXPECT_NE(metrics.body.find("\"acme\""), std::string::npos);
  EXPECT_NE(metrics.body.find("\"report\""), std::string::npos);
}

TEST(ApiService, BearerAuthRejectsNearMissTokensOfAnyLength) {
  // The comparison is constant-time (no early exit on the first differing
  // byte or on a length mismatch), so every near-miss shape must land on the
  // same 401: equal length with one byte off, a strict prefix of the real
  // token, the real token with a suffix appended, and the empty token.
  ThreadGuard guard;
  ApiFixture fx("acme=s3cret,beta=tok2");

  EXPECT_EQ(fx.api->handle(get("/metrics", "Bearer s3creX")).status, 401);  // equal length
  EXPECT_EQ(fx.api->handle(get("/metrics", "Bearer X3cret")).status, 401);  // equal length
  EXPECT_EQ(fx.api->handle(get("/metrics", "Bearer s3cre")).status, 401);   // one short
  EXPECT_EQ(fx.api->handle(get("/metrics", "Bearer s3cret2")).status, 401); // one long
  EXPECT_EQ(fx.api->handle(get("/metrics", "Bearer ")).status, 401);        // empty token

  // Every stored token still authenticates after the scan-all-tenants change.
  EXPECT_EQ(fx.api->handle(get("/metrics", "Bearer s3cret")).status, 200);
  EXPECT_EQ(fx.api->handle(get("/metrics", "Bearer tok2")).status, 200);
}

TEST(ApiService, OpenApiAccountsToDefaultTenant) {
  ThreadGuard guard;
  ApiFixture fx;
  EXPECT_EQ(fx.api->handle(post_unlearn(R"({"kind": "client", "target": 2})")).status, 202);
  fx.api->drain();
  const auto& stats = fx.api->tenant_stats();
  ASSERT_TRUE(stats.count("default"));
  EXPECT_EQ(stats.at("default").admitted, 1);
  EXPECT_EQ(stats.at("default").completed, 1);
  const auto report = fx.api->report();
  EXPECT_EQ(report.completed.size(), 1u);
  EXPECT_EQ(report.transport, "http");
}

}  // namespace
}  // namespace quickdrop::net
