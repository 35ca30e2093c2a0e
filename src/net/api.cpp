#include "net/api.h"

#include <cctype>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/logging.h"

namespace quickdrop::net {

namespace {

/// Escapes a string for embedding in a JSON literal. Control characters are
/// dropped — nothing in the service emits them, and the reports must stay
/// deterministic and grep-friendly.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  return out;
}

/// A flat JSON object: string and integer values only — exactly the shape
/// of an unlearn request body. Anything else is malformed, including an
/// array and a number that is not an integer inside int's range.
struct JsonBody {
  std::map<std::string, int> numbers;
  std::map<std::string, std::string> strings;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonBody parse() {
    JsonBody body;
    skip_ws();
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
    } else {
      for (;;) {
        skip_ws();
        const std::string key = parse_string();
        skip_ws();
        expect(':');
        skip_ws();
        parse_value(body, key);
        skip_ws();
        const char c = take();
        if (c == '}') break;
        if (c != ',') fail("expected ',' or '}'");
      }
    }
    skip_ws();
    if (pos_ != text_.size()) fail("trailing bytes after object");
    return body;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("unlearn body: " + what);
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  char take() {
    if (pos_ >= text_.size()) fail("unexpected end of body");
    return text_[pos_++];
  }
  void expect(char c) {
    if (take() != c) fail(std::string("expected '") + c + "'");
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = take();
      if (c == '"') return out;
      if (c == '\\') {
        const char e = take();
        if (e != '"' && e != '\\') fail("unsupported escape");
        out.push_back(e);
        continue;
      }
      out.push_back(c);
    }
  }

  int parse_int() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a number");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("bad number '" + token + "'");
    // The range test is false for NaN too, so no value reaches the cast
    // unless it converts exactly.
    if (!(value >= std::numeric_limits<int>::min() && value <= std::numeric_limits<int>::max()) ||
        value != std::trunc(value)) {
      fail("'" + token + "' is not an integer in range");
    }
    return static_cast<int>(value);
  }

  void parse_value(JsonBody& body, const std::string& key) {
    const char c = peek();
    if (c == '"') {
      body.strings[key] = parse_string();
    } else if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      body.numbers[key] = parse_int();
    } else {
      fail("unsupported value type");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<Tenant> parse_tenant_specs(const std::string& spec) {
  std::vector<Tenant> tenants;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) {
      throw std::invalid_argument("tenant spec: empty entry in '" + spec + "'");
    }
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == entry.size()) {
      throw std::invalid_argument("tenant spec: '" + entry + "' is not name=token");
    }
    Tenant tenant{entry.substr(0, eq), entry.substr(eq + 1)};
    for (const auto& existing : tenants) {
      if (existing.name == tenant.name) {
        throw std::invalid_argument("tenant spec: duplicate tenant '" + tenant.name + "'");
      }
    }
    tenants.push_back(std::move(tenant));
    if (comma == spec.size()) break;
  }
  return tenants;
}

ApiService::ApiService(std::shared_ptr<core::QuickDrop> quickdrop, nn::ModelState initial,
                       ApiConfig config)
    : tenants_(std::move(config.tenants)),
      service_(std::move(quickdrop), std::move(initial), std::move(config.service)) {}

namespace {

/// Compares a presented token against a stored one without data-dependent
/// early exits: the loop runs over max(len_a, len_b) bytes regardless of
/// where the first mismatch sits, folding the length difference into the
/// same accumulator, so response timing does not leak how much of a token
/// prefix matched. (operator== bails at the first differing byte, which a
/// network attacker can measure byte-by-byte.)
bool token_equal_constant_time(const std::string& a, const std::string& b) {
  const std::size_t n = a.size() > b.size() ? a.size() : b.size();
  std::uint8_t diff = static_cast<std::uint8_t>(a.size() != b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t ca = i < a.size() ? static_cast<std::uint8_t>(a[i]) : 0;
    const std::uint8_t cb = i < b.size() ? static_cast<std::uint8_t>(b[i]) : 0;
    diff = static_cast<std::uint8_t>(diff | (ca ^ cb));
  }
  return diff == 0;
}

}  // namespace

std::string ApiService::authenticate(const HttpRequest& request) const {
  if (tenants_.empty()) return "default";
  const std::string& auth = request.header("authorization");
  const std::string prefix = "Bearer ";
  if (auth.rfind(prefix, 0) != 0) return "";
  const std::string token = auth.substr(prefix.size());
  // Scan every tenant even after a hit, so the number of comparisons does
  // not reveal which tenant (if any) matched.
  const Tenant* matched = nullptr;
  for (const auto& tenant : tenants_) {
    if (token_equal_constant_time(tenant.token, token) && matched == nullptr) {
      matched = &tenant;
    }
  }
  return matched ? matched->name : "";
}

HttpResponse ApiService::handle(const HttpRequest& request) {
  const std::string tenant = authenticate(request);
  if (tenant.empty()) {
    return HttpResponse{.status = 401, .body = "{\"error\": \"missing or unknown bearer token\"}\n"};
  }
  auto& stats = tenants_seen_[tenant];
  stats.wire_bytes += static_cast<std::int64_t>(request.method.size() + request.target.size() +
                                                request.body.size());

  if (request.target == "/unlearn") {
    if (request.method != "POST") {
      return HttpResponse{.status = 405, .body = "{\"error\": \"use POST\"}\n"};
    }
    return handle_unlearn(request, tenant);
  }
  if (request.target.rfind("/request/", 0) == 0) {
    if (request.method != "GET") {
      return HttpResponse{.status = 405, .body = "{\"error\": \"use GET\"}\n"};
    }
    const std::string id_text = request.target.substr(9);
    // 18 digits keeps std::stoll inside int64 range; anything longer would
    // throw out_of_range and surface as a 500 instead of a bad request.
    if (id_text.empty() || id_text.size() > 18 ||
        id_text.find_first_not_of("0123456789") != std::string::npos) {
      return HttpResponse{.status = 400, .body = "{\"error\": \"bad request id\"}\n"};
    }
    return handle_request_status(std::stoll(id_text));
  }
  if (request.target == "/metrics") {
    if (request.method != "GET") {
      return HttpResponse{.status = 405, .body = "{\"error\": \"use GET\"}\n"};
    }
    return handle_metrics();
  }
  return HttpResponse{.status = 404, .body = "{\"error\": \"no such route\"}\n"};
}

HttpResponse ApiService::handle_unlearn(const HttpRequest& request, const std::string& tenant) {
  serve::ServiceRequest service_request;
  try {
    const JsonBody body = JsonParser(request.body).parse();
    const auto kind_it = body.strings.find("kind");
    const auto target_it = body.numbers.find("target");
    if (kind_it == body.strings.end() || target_it == body.numbers.end()) {
      throw std::invalid_argument("unlearn body: 'kind' and 'target' are required");
    }
    service_request.kind = serve::kind_from_name(kind_it->second);
    service_request.target = target_it->second;
    const auto prio_it = body.numbers.find("priority");
    if (prio_it != body.numbers.end()) service_request.priority = prio_it->second;
  } catch (const std::invalid_argument& e) {
    return HttpResponse{.status = 400,
                        .body = "{\"error\": \"" + json_escape(e.what()) + "\"}\n"};
  }
  service_request.arrival_seconds = service_.clock_seconds();

  const auto [decision, id] = service_.admit(service_request);
  auto& stats = tenants_seen_[tenant];
  if (!decision.accepted) {
    ++stats.rejected;
    return HttpResponse{.status = 400,
                        .body = std::string("{\"status\": \"rejected\", \"reason\": \"") +
                                serve::reject_reason_name(decision.reason) +
                                "\", \"message\": \"" + json_escape(decision.message) + "\"}\n"};
  }
  ++stats.admitted;
  owner_[id] = tenant;
  QD_LOG_INFO << "api: tenant '" << tenant << "' queued request #" << id;
  return HttpResponse{.status = 202,
                      .body = "{\"id\": " + std::to_string(id) + ", \"status\": \"queued\"}\n"};
}

HttpResponse ApiService::handle_request_status(std::int64_t id) const {
  const auto done = completed_index_.find(id);
  if (done != completed_index_.end()) {
    const auto& m = service_.completed()[done->second];
    return HttpResponse{
        .status = 200,
        .body = "{\"id\": " + std::to_string(id) + ", \"status\": \"completed\"" +
                ", \"latency_seconds\": " + serve::json_double(m.latency()) +
                ", \"unlearn_rounds\": " + std::to_string(m.unlearn_rounds) +
                ", \"recovery_rounds\": " + std::to_string(m.recovery_rounds) + "}\n"};
  }
  for (const auto& pending : service_.queue().pending()) {
    if (pending.id == id) {
      return HttpResponse{.status = 200, .body = "{\"id\": " + std::to_string(id) +
                                                 ", \"status\": \"queued\"}\n"};
    }
  }
  return HttpResponse{.status = 404, .body = "{\"error\": \"unknown request id\"}\n"};
}

HttpResponse ApiService::handle_metrics() const {
  std::ostringstream out;
  out << "{\n  \"tenants\": {";
  bool first = true;
  for (const auto& [name, stats] : tenants_seen_) {
    out << (first ? "" : ", ") << "\"" << json_escape(name) << "\": {\"admitted\": "
        << stats.admitted << ", \"rejected\": " << stats.rejected
        << ", \"completed\": " << stats.completed << ", \"wire_bytes\": " << stats.wire_bytes
        << "}";
    first = false;
  }
  out << "},\n  \"report\": " << report().to_json() << "}\n";
  return HttpResponse{.status = 200, .body = out.str()};
}

void ApiService::drain() {
  while (!service_.queue().empty()) {
    const std::size_t first = service_.completed().size();
    const auto served = service_.run_cycle();
    for (std::size_t i = 0; i < served.size(); ++i) {
      completed_index_[served[i].id] = first + i;
      const auto owner = owner_.find(served[i].id);
      if (owner != owner_.end()) ++tenants_seen_[owner->second].completed;
    }
  }
}

}  // namespace quickdrop::net
