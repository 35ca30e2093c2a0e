#include "serve/trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/atomic_file.h"

namespace quickdrop::serve {

std::vector<ServiceRequest> generate_trace(const ArrivalConfig& config, Rng& rng) {
  if (config.num_requests < 0) throw std::invalid_argument("generate_trace: negative count");
  if (!(config.mean_interarrival_seconds > 0.0)) {
    throw std::invalid_argument("generate_trace: mean inter-arrival must be > 0");
  }
  if (config.client_fraction < 0.0 || config.client_fraction > 1.0) {
    throw std::invalid_argument("generate_trace: client fraction outside [0, 1]");
  }
  if (config.num_classes <= 0 || config.num_clients <= 0 || config.priority_levels <= 0) {
    throw std::invalid_argument("generate_trace: counts must be positive");
  }

  // Without-replacement pools: shuffled once up front so each draw is O(1)
  // and the trace depends only on the rng stream, not on draw interleaving.
  std::vector<int> class_pool = rng.permutation(config.num_classes);
  std::vector<int> client_pool = rng.permutation(config.num_clients);
  std::size_t class_next = 0, client_next = 0;

  std::vector<ServiceRequest> trace;
  trace.reserve(static_cast<std::size_t>(config.num_requests));
  double clock = 0.0;
  for (int i = 0; i < config.num_requests; ++i) {
    // Exponential inter-arrival gap: -mean * ln(1 - U), U in [0, 1).
    const double u = static_cast<double>(rng.uniform());
    clock += -config.mean_interarrival_seconds * std::log(1.0 - u);

    const bool client_kind = static_cast<double>(rng.uniform()) < config.client_fraction;
    ServiceRequest request;
    request.arrival_seconds = clock;
    request.priority =
        config.priority_levels > 1 ? rng.uniform_int(0, config.priority_levels - 1) : 0;
    if (client_kind) {
      request.kind = RequestKind::kClient;
      if (config.allow_duplicates) {
        request.target = rng.uniform_int(0, config.num_clients - 1);
      } else if (client_next < client_pool.size()) {
        request.target = client_pool[client_next++];
      } else {
        break;  // every client already requested once
      }
    } else {
      request.kind = RequestKind::kClass;
      if (config.allow_duplicates) {
        request.target = rng.uniform_int(0, config.num_classes - 1);
      } else if (class_next < class_pool.size()) {
        request.target = class_pool[class_next++];
      } else {
        break;  // every class already requested once
      }
    }
    trace.push_back(std::move(request));
  }
  return trace;
}

std::string format_trace(const std::vector<ServiceRequest>& trace) {
  std::string out = "# quickdrop request trace: <arrival-seconds> <kind> <target> [prio=<p>]\n";
  for (const auto& request : trace) {
    out += format_request(request);
    out += "\n";
  }
  return out;
}

std::vector<ServiceRequest> parse_trace(const std::string& text) {
  // No legitimate trace line approaches this; longer means a binary or
  // corrupted file was fed in, and the error should say so rather than let a
  // multi-megabyte "line" reach the request parser.
  constexpr std::size_t kMaxLine = 4096;
  // A well-formed trace file ends in a newline (format_trace guarantees it);
  // a final line without one is the signature of a file truncated mid-write.
  if (!text.empty() && text.back() != '\n') {
    const int lines = 1 + static_cast<int>(std::count(text.begin(), text.end(), '\n'));
    throw TraceError(lines, "truncated trace (no final newline)");
  }
  std::vector<ServiceRequest> trace;
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.size() > kMaxLine) {
      throw TraceError(line_number, "line exceeds " + std::to_string(kMaxLine) +
                                        " bytes (garbage or binary input)");
    }
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) line.pop_back();
    std::size_t start = 0;
    while (start < line.size() && (line[start] == ' ' || line[start] == '\t')) ++start;
    if (start == line.size() || line[start] == '#') continue;
    try {
      trace.push_back(parse_request(line.substr(start)));
    } catch (const TraceError&) {
      throw;
    } catch (const std::exception& e) {
      // parse_request throws invalid_argument; std::stoi/stod can also throw
      // out_of_range on absurd numerals. Both become a typed, line-numbered
      // TraceError.
      throw TraceError(line_number, e.what());
    }
  }
  std::stable_sort(trace.begin(), trace.end(),
                   [](const ServiceRequest& a, const ServiceRequest& b) {
                     return a.arrival_seconds < b.arrival_seconds;
                   });
  return trace;
}

void save_trace(const std::vector<ServiceRequest>& trace, const std::string& path) {
  write_file_atomic(path, format_trace(trace));
}

std::vector<ServiceRequest> load_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_trace: cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_trace(ss.str());
}

}  // namespace quickdrop::serve
