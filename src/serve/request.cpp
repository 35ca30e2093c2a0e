#include "serve/request.h"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace quickdrop::serve {

namespace {

/// Shortest decimal form of `v` that parses back to the identical double.
std::string format_exact(double v) {
  char buf[64];
  for (const int precision : {9, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::stod(buf) == v) break;  // NOLINT(qdlint-num-float-eq) exact round-trip test
  }
  return buf;
}

}  // namespace

const char* kind_name(RequestKind kind) {
  switch (kind) {
    case RequestKind::kClass:
      return "class";
    case RequestKind::kClient:
      return "client";
  }
  return "?";
}

RequestKind kind_from_name(const std::string& name) {
  if (name == "class") return RequestKind::kClass;
  if (name == "client") return RequestKind::kClient;
  throw std::invalid_argument("unknown request kind '" + name + "'");
}

core::UnlearningRequest ServiceRequest::to_core() const {
  return kind == RequestKind::kClass ? core::UnlearningRequest::for_class(target)
                                     : core::UnlearningRequest::for_client(target);
}

std::string ServiceRequest::describe() const {
  std::string out = "#" + std::to_string(id) + " " + kind_name(kind) + " " +
                    std::to_string(target) + " @t=" + format_exact(arrival_seconds) + "s";
  if (priority != 0) out += " prio=" + std::to_string(priority);
  return out;
}

std::string format_request(const ServiceRequest& request) {
  std::string line = format_exact(request.arrival_seconds);
  line += " ";
  line += kind_name(request.kind);
  line += " " + std::to_string(request.target);
  if (request.priority != 0) line += " prio=" + std::to_string(request.priority);
  return line;
}

ServiceRequest parse_request(const std::string& line) {
  std::istringstream in(line);
  std::string arrival_text, kind_text;
  ServiceRequest request;
  if (!(in >> arrival_text >> kind_text >> request.target)) {
    throw std::invalid_argument("malformed trace line '" + line + "'");
  }
  std::size_t used = 0;
  request.arrival_seconds = std::stod(arrival_text, &used);
  if (used != arrival_text.size()) {
    throw std::invalid_argument("malformed arrival time '" + arrival_text + "'");
  }
  request.kind = kind_from_name(kind_text);
  std::string field;
  while (in >> field) {
    if (field.rfind("prio=", 0) == 0) {
      request.priority = std::stoi(field.substr(5));
    } else {
      throw std::invalid_argument("unknown trace field '" + field + "'");
    }
  }
  return request;
}

}  // namespace quickdrop::serve
