// Typed validation for the `serve` and `replay` CLI surfaces.
//
// Before this layer, flag mistakes either fell through to std::sto* noise
// ("stoi") or silently produced a degenerate run (zero requests, negative
// rates). Every constraint now lives in one place, fails with an
// OptionsError naming the offending flag, and is unit-testable without
// invoking the binary. Cross-flag conflicts (e.g. --trace together with
// trace-generation knobs, --listen together with replay knobs) are rejected
// eagerly, and `serve --resume` refuses to continue a run under a different
// scheduler policy than the checkpoint records.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/cli.h"

namespace quickdrop::serve {

/// Checkpoint-metadata key where `serve --out` records its scheduler policy,
/// and which `serve --resume` validates against.
inline constexpr const char* kServePolicyKey = "serve_policy";

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
  std::string policy = "fifo";
  int max_batch = 0;
  bool resume = false;  ///< validate policy against the checkpoint's record
  // Cost model.
  double sec_per_round = 2.0;
  double sec_per_grad = 1e-4;
  // Outputs.
  std::string dump_trace;
  std::string json_path;
  std::string out;
  // Network front-end.
  std::string transport = "inproc";  ///< "inproc" or "loopback"
  int listen_port = -1;              ///< --listen PORT (HTTP mode), -1 = off
  int wire_listen_port = -1;         ///< --wire-listen PORT (serves one `replay --connect`)
  std::string tenants_spec;          ///< "name=token,..." for the HTTP API
  double wire_bandwidth = 0.0;       ///< bytes/second for the net-time column
};

/// Reads and validates every serve flag. Throws OptionsError on bad values
/// or conflicting combinations; leaves unknown-flag detection to the
/// caller's flags.check_unused().
ServeOptions parse_serve_options(CliFlags& flags);

/// `serve --resume` gate: the checkpoint must record the same scheduler
/// policy the run requests. Throws OptionsError otherwise (including when
/// the checkpoint predates policy recording).
void validate_resume_policy(const ServeOptions& options,
                            const std::map<std::string, std::string>& metadata);

/// Everything `replay` accepts, post-validation.
struct ReplayOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string checkpoint = "model.qdcp";
  std::string trace_path;
  std::string tenant = "default";
};

/// Reads and validates every replay flag (--connect HOST:PORT is required).
ReplayOptions parse_replay_options(CliFlags& flags);

/// Splits "host:port". Throws OptionsError("connect", ...) on a missing
/// colon, empty host or a port outside [1, 65535].
std::pair<std::string, std::uint16_t> parse_host_port(const std::string& spec);

}  // namespace quickdrop::serve
