// qdlint driver: the orchestration layer above the pure analysis library.
// Walks the tree, analyzes every file in one cold serial pass, and runs the
// whole-project stage (layer DAG, include cycles, reachability). Like the
// rest of qdlint_lib it depends on nothing outside the standard library.
#pragma once

#include <string>
#include <vector>

#include "qdlint.h"

namespace qdlint {

struct DriverOptions {
  std::string root;                 // repo root (absolute or cwd-relative)
  std::vector<std::string> paths;   // repo-relative files/dirs; default src tools bench
  std::string layers_path;          // layer map; "" = <root>/tools/qdlint/layers.txt
};

struct DriverResult {
  bool ok = false;
  std::string error;                      // set when !ok
  std::vector<Finding> findings;          // per-file + project, sorted by path/line
  std::vector<std::string> line_texts;    // parallel to findings (trimmed source)
  int files_scanned = 0;
};

/// Runs the full lint pass. Deterministic: findings are a pure function of
/// the file contents and the layer map.
DriverResult run_driver(const DriverOptions& opts);

}  // namespace qdlint
