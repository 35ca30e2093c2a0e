// Typed validation for the `serve` CLI surface.
//
// Before this layer, flag mistakes either fell through to std::sto* noise
// ("stoi") or silently produced a degenerate run (zero requests, negative
// rates). Every constraint now lives in one place, fails with an
// OptionsError naming the offending flag, and is unit-testable without
// invoking the binary. Cross-flag conflicts (e.g. --trace together with
// trace-generation knobs, --listen together with trace knobs) are rejected
// eagerly.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/cli.h"

namespace quickdrop::serve {

/// A rejected flag value or combination. `flag` is the offending flag
/// without the leading dashes.
struct OptionsError : std::invalid_argument {
  OptionsError(std::string flag_name, const std::string& what)
      : std::invalid_argument("--" + flag_name + ": " + what), flag(std::move(flag_name)) {}
  std::string flag;
};

/// Everything `serve` accepts, post-validation.
struct ServeOptions {
  std::string checkpoint = "model.qdcp";
  // Trace: either an explicit file or generation parameters, never both.
  std::string trace_path;
  int requests = 6;
  double arrival_rate_seconds = 60.0;  ///< mean inter-arrival
  double client_fraction = 0.25;
  std::uint64_t trace_seed = 0;  ///< resolved against the federation seed later
  bool trace_seed_set = false;
  // Scheduling.
  std::string policy = "coalesce";
  int max_batch = 1;  ///< coalescing cap, 0 = unlimited; only with coalesce
  // Cost model.
  double sec_per_round = 2.0;
  double sec_per_grad = 1e-4;
  // Outputs.
  std::string dump_trace;
  std::string json_path;
  std::string out;
  // HTTP front end.
  int listen_port = -1;      ///< --listen PORT, -1 = off (replay a trace in-process)
  std::string tenants_spec;  ///< "name=token,..." for the HTTP API
};

/// Reads and validates every serve flag. Throws OptionsError on bad values
/// or conflicting combinations; leaves unknown-flag detection to the
/// caller's flags.check_unused().
ServeOptions parse_serve_options(CliFlags& flags);

}  // namespace quickdrop::serve
