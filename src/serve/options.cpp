#include "serve/options.h"

#include "serve/scheduler.h"

namespace quickdrop::serve {

namespace {

/// The flags that parameterize trace *generation*, which conflict with an
/// explicit --trace file and with --listen (HTTP mode has no trace at all).
const char* const kTraceGenFlags[] = {"requests", "arrival-rate", "client-fraction",
                                      "trace-seed"};

}  // namespace

ServeOptions parse_serve_options(CliFlags& flags) {
  ServeOptions o;
  o.checkpoint = flags.get_string("checkpoint", o.checkpoint);
  o.trace_path = flags.get_string("trace", o.trace_path);
  o.requests = flags.get_int("requests", o.requests);
  o.arrival_rate_seconds = flags.get_double("arrival-rate", o.arrival_rate_seconds);
  o.client_fraction = flags.get_double("client-fraction", o.client_fraction);
  o.trace_seed_set = flags.has("trace-seed");
  o.trace_seed = static_cast<std::uint64_t>(flags.get_int("trace-seed", 0));
  o.policy = flags.get_string("policy", o.policy);
  o.max_batch = flags.get_int("max-batch", o.max_batch);
  o.resume = flags.get_bool("resume", o.resume);
  o.sec_per_round = flags.get_double("sec-per-round", o.sec_per_round);
  o.sec_per_grad = flags.get_double("sec-per-grad", o.sec_per_grad);
  o.dump_trace = flags.get_string("dump-trace", o.dump_trace);
  o.json_path = flags.get_string("json", o.json_path);
  o.out = flags.get_string("out", o.out);
  o.transport = flags.get_string("transport", o.transport);
  o.listen_port = flags.get_int("listen", o.listen_port);
  o.wire_listen_port = flags.get_int("wire-listen", o.wire_listen_port);
  o.tenants_spec = flags.get_string("tenants", o.tenants_spec);
  o.wire_bandwidth = flags.get_double("wire-bandwidth", o.wire_bandwidth);

  // Value ranges.
  if (o.requests <= 0) {
    throw OptionsError("requests", "must be >= 1, got " + std::to_string(o.requests));
  }
  if (o.arrival_rate_seconds <= 0.0) {
    throw OptionsError("arrival-rate", "mean inter-arrival seconds must be > 0");
  }
  if (o.client_fraction < 0.0 || o.client_fraction > 1.0) {
    throw OptionsError("client-fraction", "must be in [0, 1]");
  }
  if (o.max_batch < 0) {
    throw OptionsError("max-batch", "must be >= 0 (0 = unlimited)");
  }
  if (o.sec_per_round < 0.0) {
    throw OptionsError("sec-per-round", "must be >= 0");
  }
  if (o.sec_per_grad < 0.0) {
    throw OptionsError("sec-per-grad", "must be >= 0");
  }
  if (o.wire_bandwidth < 0.0) {
    throw OptionsError("wire-bandwidth", "bytes/second must be >= 0 (0 = no breakdown)");
  }
  try {
    (void)policy_from_name(o.policy);
  } catch (const std::invalid_argument& e) {
    throw OptionsError("policy", e.what());
  }
  if (o.max_batch > 0 && policy_from_name(o.policy) != SchedulerPolicy::kCoalesce) {
    throw OptionsError("max-batch", "only the coalesce policy batches; drop the flag or use "
                                    "--policy coalesce");
  }
  if (o.transport != "inproc" && o.transport != "loopback") {
    throw OptionsError("transport", "must be 'inproc' or 'loopback', got '" + o.transport + "'");
  }

  // Cross-flag conflicts.
  if (!o.trace_path.empty()) {
    for (const char* flag : kTraceGenFlags) {
      if (flags.has(flag)) {
        throw OptionsError(flag, "conflicts with --trace (the file fixes the workload)");
      }
    }
  }
  if (flags.has("listen")) {
    if (o.listen_port < 1 || o.listen_port > 65535) {
      throw OptionsError("listen", "port must be in [1, 65535], got " +
                                       std::to_string(o.listen_port));
    }
    if (flags.has("transport")) {
      throw OptionsError("listen", "conflicts with --transport (HTTP mode is its own front-end)");
    }
    if (!o.trace_path.empty()) {
      throw OptionsError("listen", "conflicts with --trace (HTTP requests arrive live)");
    }
    for (const char* flag : kTraceGenFlags) {
      if (flags.has(flag)) {
        throw OptionsError(flag, "conflicts with --listen (HTTP requests arrive live)");
      }
    }
    if (!o.dump_trace.empty()) {
      throw OptionsError("dump-trace", "conflicts with --listen");
    }
  } else if (flags.has("tenants")) {
    throw OptionsError("tenants", "only meaningful with --listen");
  }
  if (flags.has("wire-listen")) {
    if (o.wire_listen_port < 1 || o.wire_listen_port > 65535) {
      throw OptionsError("wire-listen",
                         "port must be in [1, 65535], got " + std::to_string(o.wire_listen_port));
    }
    if (flags.has("listen")) {
      throw OptionsError("wire-listen", "conflicts with --listen (pick one front-end)");
    }
    if (flags.has("transport")) {
      throw OptionsError("wire-listen",
                         "conflicts with --transport (the wire server is its own transport)");
    }
    if (!o.trace_path.empty()) {
      throw OptionsError("wire-listen", "conflicts with --trace (the client streams the trace)");
    }
    for (const char* flag : kTraceGenFlags) {
      if (flags.has(flag)) {
        throw OptionsError(flag, "conflicts with --wire-listen (the client streams the trace)");
      }
    }
    if (!o.dump_trace.empty()) {
      throw OptionsError("dump-trace", "conflicts with --wire-listen");
    }
  }
  return o;
}

void validate_resume_policy(const ServeOptions& options,
                            const std::map<std::string, std::string>& metadata) {
  if (!options.resume) return;
  const auto it = metadata.find(kServePolicyKey);
  if (it == metadata.end()) {
    throw OptionsError("resume",
                       "checkpoint records no serve policy (was it written by serve --out?)");
  }
  if (it->second != options.policy) {
    throw OptionsError("resume", "checkpoint was served with policy '" + it->second +
                                     "' but this run requests '" + options.policy +
                                     "'; re-run with --policy " + it->second);
  }
}

std::pair<std::string, std::uint16_t> parse_host_port(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    throw OptionsError("connect", "expected HOST:PORT, got '" + spec + "'");
  }
  const std::string port_text = spec.substr(colon + 1);
  if (port_text.find_first_not_of("0123456789") != std::string::npos || port_text.size() > 5) {
    throw OptionsError("connect", "bad port '" + port_text + "'");
  }
  const long port = std::stol(port_text);
  if (port < 1 || port > 65535) {
    throw OptionsError("connect", "port must be in [1, 65535], got " + port_text);
  }
  return {spec.substr(0, colon), static_cast<std::uint16_t>(port)};
}

ReplayOptions parse_replay_options(CliFlags& flags) {
  ReplayOptions o;
  if (!flags.has("connect")) {
    throw OptionsError("connect", "is required (replay --connect HOST:PORT)");
  }
  const auto [host, port] = parse_host_port(flags.get_string("connect", ""));
  o.host = host;
  o.port = port;
  o.checkpoint = flags.get_string("checkpoint", o.checkpoint);
  o.trace_path = flags.get_string("trace", o.trace_path);
  o.tenant = flags.get_string("tenant", o.tenant);
  if (o.trace_path.empty()) {
    throw OptionsError("trace", "is required (replay sends an existing trace file)");
  }
  if (o.tenant.empty()) {
    throw OptionsError("tenant", "must be non-empty");
  }
  return o;
}

}  // namespace quickdrop::serve
