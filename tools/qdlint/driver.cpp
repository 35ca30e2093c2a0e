#include "driver.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace fs = std::filesystem;

namespace qdlint {
namespace {

bool has_suffix(const std::string& s, const char* suffix) {
  const std::size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool lintable(const fs::path& p) {
  const std::string name = p.filename().string();
  return has_suffix(name, ".cpp") || has_suffix(name, ".cc") || has_suffix(name, ".h") ||
         has_suffix(name, ".hpp");
}

bool read_file(const fs::path& p, std::string* out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

struct FileSlot {
  std::string rel;       // repo-relative path
  fs::path full;
  std::string source;    // kept for project-finding line texts
  AnalyzedFile analysis;
};

struct Zipped {
  Finding finding;
  std::string line_text;
};

}  // namespace

DriverResult run_driver(const DriverOptions& opts) {
  DriverResult result;

  std::error_code ec;
  const fs::path root = fs::canonical(opts.root.empty() ? fs::current_path() : fs::path(opts.root), ec);
  if (ec) {
    result.error = "bad root '" + opts.root + "': " + ec.message();
    return result;
  }

  // ---- collect files, sorted, deduped --------------------------------------
  std::vector<std::string> paths = opts.paths;
  // A defaulted root that doesn't exist is skipped (not every checkout has a
  // bench/); an explicit path that doesn't exist is a hard error.
  const bool defaulted = paths.empty();
  if (defaulted) paths = {"src", "tools", "bench"};
  std::vector<FileSlot> slots;
  std::set<std::string> seen;
  for (const auto& p : paths) {
    const fs::path full = root / p;
    if (fs::is_regular_file(full)) {
      const std::string rel = fs::relative(full, root).generic_string();
      if (seen.insert(rel).second) slots.push_back({rel, full, {}, {}});
      continue;
    }
    if (!fs::is_directory(full)) {
      if (defaulted) continue;
      result.error = "no such file or directory: " + full.string();
      return result;
    }
    for (auto it = fs::recursive_directory_iterator(full);
         it != fs::recursive_directory_iterator(); ++it) {
      if (!it->is_regular_file() || !lintable(it->path())) continue;
      const std::string rel = fs::relative(it->path(), root).generic_string();
      if (seen.insert(rel).second) slots.push_back({rel, it->path(), {}, {}});
    }
  }
  std::sort(slots.begin(), slots.end(),
            [](const FileSlot& a, const FileSlot& b) { return a.rel < b.rel; });
  result.files_scanned = static_cast<int>(slots.size());

  // ---- per-file pass, serial in sorted order ------------------------------
  for (FileSlot& slot : slots) {
    if (!read_file(slot.full, &slot.source)) {
      result.error = "cannot read " + slot.full.string();
      return result;
    }
    slot.analysis = analyze_file(classify(slot.rel), slot.source);
  }

  // ---- whole-project stage -------------------------------------------------
  const std::string layers_path =
      opts.layers_path.empty() ? (root / "tools/qdlint/layers.txt").string() : opts.layers_path;
  LayerMap layers;
  std::string content, layer_err;
  if (!read_file(layers_path, &content)) {
    result.error = "cannot read layer map " + layers_path;
    return result;
  }
  if (!parse_layer_map(content, &layers, &layer_err)) {
    result.error = layer_err;
    return result;
  }
  std::vector<FileFacts> all_facts;
  all_facts.reserve(slots.size());
  for (const FileSlot& slot : slots) all_facts.push_back(slot.analysis.facts);
  const std::vector<Finding> project = link_project(all_facts, layers);

  // ---- merge per-file + project findings, with line texts ------------------
  std::vector<Zipped> zipped;
  std::map<std::string, std::size_t> slot_index;
  for (std::size_t i = 0; i < slots.size(); ++i) slot_index[slots[i].rel] = i;
  for (const FileSlot& slot : slots) {
    const AnalyzedFile& a = slot.analysis;
    for (std::size_t i = 0; i < a.findings.size(); ++i) {
      zipped.push_back({a.findings[i], a.line_texts[i]});
    }
  }
  // Project findings take their line text from the flagged file's source,
  // split once per flagged file.
  std::map<std::string, std::vector<std::string>> split_lines;
  for (const Finding& f : project) {
    auto lit = split_lines.find(f.path);
    if (lit == split_lines.end()) {
      const std::string& source = slots[slot_index.at(f.path)].source;
      lit = split_lines.emplace(f.path, split_source_lines(source)).first;
    }
    zipped.push_back({f, trimmed_line(lit->second, f.line)});
  }
  std::stable_sort(zipped.begin(), zipped.end(), [](const Zipped& a, const Zipped& b) {
    if (a.finding.path != b.finding.path) return a.finding.path < b.finding.path;
    if (a.finding.line != b.finding.line) return a.finding.line < b.finding.line;
    if (a.finding.col != b.finding.col) return a.finding.col < b.finding.col;
    return a.finding.rule < b.finding.rule;
  });
  result.findings.reserve(zipped.size());
  result.line_texts.reserve(zipped.size());
  for (auto& z : zipped) {
    result.findings.push_back(std::move(z.finding));
    result.line_texts.push_back(std::move(z.line_text));
  }
  result.ok = true;
  return result;
}

}  // namespace qdlint
