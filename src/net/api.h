// HTTP/JSON API over the unlearning service.
//
// Routes:
//   POST /unlearn      {"kind": "class"|"client", "target": N, "priority": N?}
//                      -> 202 {"id": N, "status": "queued"}
//                       | 400 {"status": "rejected", "reason": "...", ...}
//                         (admission refused the request)
//                       | 400 {"error": "..."} (malformed body, unknown kind)
//   GET  /request/<id> -> {"id": N, "status": "queued"|"completed", ...}
//   GET  /metrics      -> the full ServiceReport JSON plus a per-tenant
//                         accounting section
//
// Authentication is per-tenant bearer tokens: when tenants are configured,
// every request must carry `Authorization: Bearer <token>` matching one of
// them (else 401), and admission/completion/request-byte counts are kept per
// tenant. With no tenants configured the API is open and everything is
// accounted to "default".
//
// Behind the routes sits one serve::UnlearningService: this class adds
// routing, JSON, auth and tenant accounting, nothing else. The API's live
// clock IS the service's sim clock. Requests admitted over HTTP carry
// arrival = current sim clock; drain() runs the service's cycles until the
// queue is empty. The HTTP server's idle hook calls drain(), so unlearning
// work happens between requests. A trace POSTed in order and drained lands
// on the same model bits and report as UnlearningService::run over that
// trace with every arrival at 0 (tests/net/handler_replay_test.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/http.h"
#include "serve/service.h"

namespace quickdrop::net {

/// One API tenant: a display name and its bearer token.
struct Tenant {
  std::string name;
  std::string token;
};

/// Parses "name=token,name2=token2". Throws std::invalid_argument on empty
/// names/tokens, missing '=', or duplicate names.
std::vector<Tenant> parse_tenant_specs(const std::string& spec);

/// Per-tenant admission accounting, reported under /metrics.
struct TenantStats {
  std::int64_t admitted = 0;
  std::int64_t rejected = 0;
  std::int64_t completed = 0;
  std::int64_t wire_bytes = 0;  ///< HTTP request bytes attributed to the tenant
};

struct ApiConfig {
  serve::ServiceConfig service;
  std::vector<Tenant> tenants;  ///< empty = open API, tenant "default"
};

class ApiService {
 public:
  ApiService(std::shared_ptr<core::QuickDrop> quickdrop, nn::ModelState initial,
             ApiConfig config);

  /// Routes one HTTP request. Never throws for client errors — those become
  /// 4xx responses.
  HttpResponse handle(const HttpRequest& request);

  /// Executes service cycles until the admission queue is empty, advancing
  /// the sim clock. Called from the HTTP server's idle hook.
  void drain();

  [[nodiscard]] const nn::ModelState& state() const { return service_.state(); }
  [[nodiscard]] double clock_seconds() const { return service_.clock_seconds(); }
  [[nodiscard]] const std::map<std::string, TenantStats>& tenant_stats() const {
    return tenants_seen_;
  }

  /// Snapshot of the run so far as a standard service report.
  [[nodiscard]] serve::ServiceReport report() const { return service_.report(); }

 private:
  /// Resolves the Authorization header to a tenant name; empty = unauthorized.
  [[nodiscard]] std::string authenticate(const HttpRequest& request) const;

  HttpResponse handle_unlearn(const HttpRequest& request, const std::string& tenant);
  HttpResponse handle_request_status(std::int64_t id) const;
  HttpResponse handle_metrics() const;

  std::vector<Tenant> tenants_;
  serve::UnlearningService service_;
  std::map<std::int64_t, std::size_t> completed_index_;  ///< id -> service_.completed() slot
  std::map<std::int64_t, std::string> owner_;            ///< id -> tenant
  std::map<std::string, TenantStats> tenants_seen_;
};

}  // namespace quickdrop::net
