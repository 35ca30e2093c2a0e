// qdlint — in-repo static analysis enforcing QuickDrop's determinism,
// concurrency and numeric-safety invariants at build time.
//
// The analyzer library is deliberately self-contained (lexer + token-stream
// rules, no external parser) so it can run as a tier-1 ctest with zero
// dependencies. It is NOT a grep: the lexer understands line/block comments,
// string and character literals (including raw strings), so rule patterns
// never fire on text inside comments or literals.
//
// v2 adds a whole-project stage on top of the per-file rules: an include
// graph checked against a declared layer DAG (tools/qdlint/layers.txt), a
// lightweight symbol index + call-graph-lite for reachability rules, and
// flow-sensitive single-function checks. The driver (driver.h) walks the
// tree and analyzes every file in one cold serial pass; everything here is
// pure and dependency-free so the lint test suite can drive it in-process.
//
// Rule families (see DESIGN.md "Static analysis & enforced invariants" and
// §14 "Whole-project analysis"):
//   DET  — sources of nondeterminism (random_device, rand, time-derived
//          seeds, sleeps in kernels, iteration over unordered containers,
//          hash-order iteration escaping into serialized sinks, Rng draws
//          reachable from parallel regions without a tag-split)
//   CONC — concurrency discipline (raw std::thread/std::async outside the
//          pool, unannotated [&] captures in parallel regions, mutable
//          static locals in kernel TUs, manual lock()/unlock() not matched
//          on all paths, mutable globals reachable from pool work)
//   NUM  — numeric safety (float ==/!=, double literals in float kernels)
//   API  — I/O and header hygiene (logging only via util/logging, #pragma
//          once everywhere, durable writes only via store/ or
//          util/atomic_file — raw ofstream/fwrite persistence can tear)
//   ARCH — include-graph discipline (declared layer DAG, no include cycles)
//
// Suppressions:
//   // NOLINT(qdlint-<rule>)          same line
//   // NOLINTNEXTLINE(qdlint-<rule>)  next line
//   // qdlint: shared-write(<why>)    marks an intentional [&] capture in a
//                                     parallel_for/run_chunks region (same
//                                     line or the line above the capture)
// plus a checked-in baseline (qdlint_baseline.txt) of grandfathered findings
// that may only shrink.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace qdlint {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class TokKind {
  kIdent,    // identifiers and keywords
  kNumber,   // numeric literals (integer or floating, any base)
  kString,   // string literal, including raw strings (text excludes quotes)
  kChar,     // character literal
  kPunct,    // operators/punctuation, longest-match (::, ==, !=, ->, ...)
  kPreproc,  // a whole preprocessor directive (continuations joined)
};

struct Token {
  TokKind kind;
  std::string text;
  int line = 0;  // 1-based line of the token's first character
  int col = 0;   // 1-based column
};

/// Per-line suppression facts harvested from comments while lexing.
struct LineMarks {
  /// line -> rules suppressed on that line ("*" = all). NOLINTNEXTLINE
  /// entries are already folded onto the line they affect.
  std::map<int, std::set<std::string>> nolint;
  /// Lines carrying a `qdlint: shared-write(<reason>)` annotation.
  std::set<int> shared_write;
};

struct LexResult {
  std::vector<Token> tokens;  // comments are not tokens; see marks
  LineMarks marks;
};

/// Tokenizes C++ source. Comments and literal *contents* never produce
/// ident/punct tokens, so rules cannot fire inside them. Unterminated
/// constructs are tolerated (lexing is best-effort, never throws).
LexResult lex(const std::string& source);

// ---------------------------------------------------------------------------
// Findings and rules
// ---------------------------------------------------------------------------

struct Finding {
  std::string rule;  // e.g. "det-random-device"
  std::string path;  // as given to analyze()
  int line = 0;
  int col = 0;
  std::string message;
  std::string hint;  // fix suggestion; may be empty
};

/// How a file is classified for rule scoping. Derived from its repo-relative
/// path by classify(), but overridable for tests.
struct FileContext {
  std::string path;        // repo-relative, '/'-separated
  bool in_src = false;     // under src/
  bool is_header = false;  // .h / .hpp
  bool is_kernel_tu = false;    // src/tensor/*.cpp — hot kernels
  bool is_thread_pool = false;  // src/util/thread_pool.* — the one home of raw threads
  bool is_logging = false;      // src/util/logging.* — the one home of raw I/O
  bool is_durable_io = false;   // src/store/*, src/util/* — the home of raw durable writes
  bool is_net_io = false;       // src/net/* — the one home of raw socket calls
};

/// Classifies `relpath` (repo-relative, '/'-separated).
FileContext classify(const std::string& relpath);

/// Runs every per-file rule (token + flow-sensitive) over one file's source.
/// Suppressed findings (NOLINT / shared-write) are already filtered out.
/// Project-wide rules (arch-*, reachability) run separately via
/// link_project() over extracted FileFacts.
std::vector<Finding> analyze(const FileContext& ctx, const std::string& source);

/// The same rule set over an already-lexed file (analyze() = lex + this).
std::vector<Finding> analyze_lexed(const FileContext& ctx, const LexResult& lexed);

/// All rule ids qdlint knows, for `--list-rules` and suppression validation.
const std::vector<std::string>& all_rules();

/// Source split into lines / one line trimmed of surrounding whitespace —
/// shared by the driver and baseline keying.
std::vector<std::string> split_source_lines(const std::string& s);
std::string trimmed_line(const std::vector<std::string>& lines, int line_no);

namespace detail {
/// The flow-sensitive rules, individually callable from tests.
void rule_lock_scope(const FileContext& ctx, const LexResult& lexed,
                     std::vector<Finding>& out);
void rule_iter_order_escape(const FileContext& ctx, const LexResult& lexed,
                            std::vector<Finding>& out);
}  // namespace detail

// ---------------------------------------------------------------------------
// Symbol index & include facts (input to the whole-project stage)
// ---------------------------------------------------------------------------

/// A by-name reference harvested from a body: callee, Rng draw, or potential
/// global use. Resolution happens at link time — qdlint's call graph is
/// name-based (no overload/namespace resolution; see DESIGN.md §14 for the
/// false-negative/positive envelope this implies).
struct SymbolRef {
  std::string name;
  int line = 0;
};

/// Facts about one function/method body or one parallel-submit call site
/// (the whole argument region of parallel_for/run_chunks/submit, including
/// any lambda passed to it).
struct BodyFacts {
  std::string name;  // function name; empty for parallel sites
  int line = 0;      // definition line / submit-site line
  bool is_site = false;
  bool has_lock_guard = false;  // declares lock_guard/scoped_lock/unique_lock
  bool has_split = false;       // calls split(...) — tag-derives a child Rng
  bool annotated = false;       // `qdlint: shared-write(...)` at the site
  std::vector<SymbolRef> calls;      // callees, in token order, deduped
  std::vector<SymbolRef> rng_draws;  // Rng draw calls / std distribution uses
  std::vector<SymbolRef> ident_uses; // filtered ident refs (global candidates)
};

struct IncludeFact {
  std::string target;  // the quoted include text, e.g. "util/rng.h"
  int line = 0;
  bool conditional = false;  // directive nested under #if/#ifdef/#ifndef
};

struct GlobalDecl {
  std::string name;
  int line = 0;
};

/// Everything the project stage needs to know about one file.
struct FileFacts {
  std::string path;
  std::vector<IncludeFact> includes;  // quoted includes only
  std::vector<BodyFacts> functions;
  std::vector<BodyFacts> sites;       // parallel-submit call sites
  std::vector<GlobalDecl> globals;    // mutable non-atomic non-mutex, ns scope
  std::vector<GlobalDecl> mutexes;    // mutex-typed members and globals
  /// NOLINT marks carried forward so project findings stay suppressible.
  std::map<int, std::set<std::string>> nolint;
};

/// Extracts the symbol index + include list from a lexed file.
FileFacts extract_facts(const FileContext& ctx, const LexResult& lexed);

/// One file, fully analyzed: per-file findings plus link-stage inputs.
struct AnalyzedFile {
  std::vector<Finding> findings;
  std::vector<std::string> line_texts;  // trimmed source line per finding
  FileFacts facts;
};

/// Lexes once, runs the per-file rules and extracts facts.
AnalyzedFile analyze_file(const FileContext& ctx, const std::string& source);

// ---------------------------------------------------------------------------
// Layer map & whole-project rules
// ---------------------------------------------------------------------------

/// Declared layering, parsed from tools/qdlint/layers.txt. Lines:
///   layer <name> <dir-prefix> [dir-prefix...]   (rank = declaration order)
///   allow <from-prefix> <to-prefix>             (extra intra-layer edge)
/// '#' comments and blank lines are ignored. A file belongs to the layer of
/// its longest matching prefix; unmapped files are exempt from arch rules.
struct LayerMap {
  struct Layer {
    std::string name;
    int rank = 0;
  };
  std::vector<Layer> layers;
  std::map<std::string, int> prefix_to_layer;  // prefix -> index into layers
  std::set<std::pair<std::string, std::string>> allowed;  // (from, to) prefixes
};

/// Parses a layer map; returns false and sets *error on malformed input.
bool parse_layer_map(const std::string& content, LayerMap* out, std::string* error);

/// The layer prefix a repo-relative path falls under ("" when unmapped).
std::string layer_prefix_of(const LayerMap& map, const std::string& relpath);

/// Runs the project-wide rules over every file's facts:
///   arch-layer-violation   include edge against the declared DAG
///   arch-include-cycle     cycle in the include graph (path printed in order)
///   conc-unguarded-global  mutable global reachable from a parallel region
///                          without a lock guard or shared-write annotation
///   det-rng-in-parallel    Rng draw reachable from a parallel region that
///                          was not tag-split at the submit site
/// Include targets are resolved against the analyzed file set only (relative
/// to the includer's directory, then src/, then the repo root); unresolved
/// includes — missing headers, system headers — are skipped, never fatal.
std::vector<Finding> link_project(const std::vector<FileFacts>& files,
                                  const LayerMap& layers);

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------

/// A baseline entry identifies a grandfathered finding by file, rule and the
/// trimmed source line text (line *numbers* drift too easily). Stored one per
/// line as "path|rule|trimmed line text". '#' lines and blank lines are
/// ignored.
struct Baseline {
  /// key -> number of grandfathered occurrences.
  std::map<std::string, int> entries;
};

std::string baseline_key(const Finding& f, const std::string& line_text);
Baseline parse_baseline(const std::string& content);

/// Removes up to the grandfathered number of matching findings per key.
/// `line_text_of` must return the trimmed source line of a finding.
std::vector<Finding> subtract_baseline(
    const std::vector<Finding>& findings, const Baseline& baseline,
    const std::vector<std::string>& finding_line_texts);

// ---------------------------------------------------------------------------
// Output helpers
// ---------------------------------------------------------------------------

std::string to_json(const std::vector<Finding>& findings);
std::string json_escape(const std::string& s);

}  // namespace qdlint
