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
  o.sec_per_round = flags.get_double("sec-per-round", o.sec_per_round);
  o.sec_per_grad = flags.get_double("sec-per-grad", o.sec_per_grad);
  o.dump_trace = flags.get_string("dump-trace", o.dump_trace);
  o.json_path = flags.get_string("json", o.json_path);
  o.out = flags.get_string("out", o.out);
  o.listen_port = flags.get_int("listen", o.listen_port);
  o.tenants_spec = flags.get_string("tenants", o.tenants_spec);

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
  try {
    (void)policy_from_name(o.policy);
  } catch (const std::invalid_argument& e) {
    throw OptionsError("policy", e.what());
  }
  if (flags.has("max-batch") && policy_from_name(o.policy) != SchedulerPolicy::kCoalesce) {
    throw OptionsError("max-batch", "only the coalesce policy batches; drop the flag or use "
                                    "--policy coalesce");
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
    if (!o.trace_path.empty()) {
      throw OptionsError("listen", "conflicts with --trace (HTTP requests arrive live)");
    }
    for (const char* flag : kTraceGenFlags) {
      if (flags.has(flag)) {
        throw OptionsError(flag, "conflicts with --listen (HTTP requests arrive live)");
      }
    }
    // The HTTP loop runs until the process is killed, so nothing would
    // ever be written to these files.
    for (const char* flag : {"dump-trace", "json", "out"}) {
      if (flags.has(flag)) throw OptionsError(flag, "conflicts with --listen");
    }
  } else if (flags.has("tenants")) {
    throw OptionsError("tenants", "only meaningful with --listen");
  }
  return o;
}

}  // namespace quickdrop::serve
