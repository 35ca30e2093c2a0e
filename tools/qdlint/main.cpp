// qdlint CLI: walks src/, tools/ and bench/ (or explicit paths), runs the
// per-file rules in one serial pass plus the whole-project stage (layer DAG,
// include cycles, reachability), subtracts the baseline, and reports
// findings. Exit code 0 = clean, 1 = non-baselined findings, 2 = usage or
// I/O error.
//
// Usage:
//   qdlint [--root DIR] [--baseline FILE] [--json] [--layers FILE]
//          [--write-baseline FILE] [--list-rules] [paths...]
//
// Paths are repo-relative (to --root); default: src tools bench.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "driver.h"
#include "qdlint.h"
#include "util/atomic_file.h"

namespace {

bool read_file(const std::string& p, std::string* out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  qdlint::DriverOptions opts;
  std::string baseline_path, write_baseline_path;
  bool json = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "qdlint: " << arg << " requires an argument\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      opts.root = next();
    } else if (arg == "--baseline") {
      baseline_path = next();
    } else if (arg == "--write-baseline") {
      write_baseline_path = next();
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--layers") {
      opts.layers_path = next();
    } else if (arg == "--list-rules") {
      for (const auto& r : qdlint::all_rules()) std::cout << "qdlint-" << r << "\n";
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: qdlint [--root DIR] [--baseline FILE] [--json] [--layers FILE]\n"
                   "              [--write-baseline FILE] [--list-rules] [paths...]\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "qdlint: unknown option " << arg << "\n";
      return 2;
    } else {
      opts.paths.push_back(arg);
    }
  }

  const qdlint::DriverResult lint = qdlint::run_driver(opts);
  if (!lint.ok) {
    std::cerr << "qdlint: " << lint.error << "\n";
    return 2;
  }
  std::vector<qdlint::Finding> findings = lint.findings;
  std::vector<std::string> line_texts = lint.line_texts;

  if (!write_baseline_path.empty()) {
    std::string out;
    out +=
        "# qdlint baseline — grandfathered findings, one per line:\n"
        "#   path|rule|trimmed source line\n"
        "# This file may only shrink: fix or NOLINT new findings instead of adding here.\n";
    for (std::size_t i = 0; i < findings.size(); ++i) {
      out += qdlint::baseline_key(findings[i], line_texts[i]) + "\n";
    }
    try {
      quickdrop::write_file_atomic(write_baseline_path, out);
    } catch (const std::exception& e) {
      std::cerr << "qdlint: cannot write baseline: " << e.what() << "\n";
      return 2;
    }
    std::cout << "qdlint: wrote " << findings.size() << " baseline entr"
              << (findings.size() == 1 ? "y" : "ies") << " to " << write_baseline_path << "\n";
    return 0;
  }

  if (!baseline_path.empty()) {
    std::string content;
    if (!read_file(baseline_path, &content)) {
      std::cerr << "qdlint: cannot read baseline " << baseline_path << "\n";
      return 2;
    }
    findings = qdlint::subtract_baseline(findings, qdlint::parse_baseline(content), line_texts);
  }

  if (json) {
    std::cout << qdlint::to_json(findings);
  } else {
    for (const auto& f : findings) {
      std::cout << f.path << ":" << f.line << ":" << f.col << ": qdlint-" << f.rule << ": "
                << f.message;
      if (!f.hint.empty()) std::cout << "\n    hint: " << f.hint;
      std::cout << "\n";
    }
    std::cout << "qdlint: " << lint.files_scanned << " files, " << findings.size()
              << " finding(s)"
              << (baseline_path.empty() ? "" : " after baseline") << "\n";
  }
  return findings.empty() ? 0 : 1;
}
