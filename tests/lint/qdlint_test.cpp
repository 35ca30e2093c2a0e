// Tests for qdlint itself: lexer literal/comment awareness, per-rule firing
// via fixture files, the expected-findings golden, suppression handling and
// baseline subtraction. QDLINT_FIXTURE_DIR is injected by CMake.

#include "qdlint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

using qdlint::Finding;

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(QDLINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Fixture file -> the repo-relative path it is analyzed as. Paths are chosen
/// so classify() activates the scopes each fixture targets.
const std::map<std::string, std::string> kFixtureContexts = {
    {"det_violations.cc", "src/fake/det_violations.cpp"},
    {"conc_violations.cc", "src/fake/conc_violations.cpp"},
    {"kernel_violations.cc", "src/tensor/kernel_violations.cpp"},
    {"num_violations.cc", "src/fake/num_violations.cpp"},
    {"api_violations.cc", "src/fake/api_violations.cpp"},
    {"api_durable_violations.cc", "src/fake/api_durable_violations.cpp"},
    {"api_net_violations.cc", "src/fake/api_net_violations.cpp"},
    {"simd_violations.cc", "src/tensor/simd_violations.cpp"},
    {"header_missing_pragma.hh", "src/fake/header_missing_pragma.h"},
    {"clean_tricky.cc", "src/tensor/clean_tricky.cpp"},
    {"lock_scope_violations.cc", "src/fake/lock_scope_violations.cpp"},
    // Outside src/ so det-unordered-iter stays quiet and the escape analysis
    // is exercised in isolation.
    {"iter_escape_violations.cc", "tools/fake/iter_escape_violations.cpp"},
};

std::vector<Finding> analyze_fixture(const std::string& name) {
  const auto it = kFixtureContexts.find(name);
  EXPECT_NE(it, kFixtureContexts.end()) << name;
  return qdlint::analyze(qdlint::classify(it->second), read_fixture(name));
}

std::vector<Finding> analyze_as(const std::string& relpath, const std::string& source) {
  return qdlint::analyze(qdlint::classify(relpath), source);
}

std::vector<std::string> rules_of(const std::vector<Finding>& fs) {
  std::vector<std::string> rules;
  rules.reserve(fs.size());
  for (const auto& f : fs) rules.push_back(f.rule);
  return rules;
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(LintLexer, TokenizesIdentifiersNumbersPuncts) {
  const auto lexed = qdlint::lex("int x = 42; x != 0.5f;");
  std::vector<std::string> texts;
  for (const auto& t : lexed.tokens) texts.push_back(t.text);
  const std::vector<std::string> want = {"int", "x", "=", "42", ";", "x", "!=", "0.5f", ";"};
  EXPECT_EQ(texts, want);
  EXPECT_EQ(lexed.tokens[6].kind, qdlint::TokKind::kPunct);
  EXPECT_EQ(lexed.tokens[7].kind, qdlint::TokKind::kNumber);
}

TEST(LintLexer, CommentsProduceNoTokens) {
  const auto lexed = qdlint::lex("// std::thread t;\n/* rand() */\nint y;");
  std::vector<std::string> texts;
  for (const auto& t : lexed.tokens) texts.push_back(t.text);
  const std::vector<std::string> want = {"int", "y", ";"};
  EXPECT_EQ(texts, want);
  EXPECT_EQ(lexed.tokens[0].line, 3);
}

TEST(LintLexer, StringAndCharContentsAreOpaque) {
  const auto lexed = qdlint::lex("f(\"rand() \\\" quoted\", 'x');");
  ASSERT_GE(lexed.tokens.size(), 3u);
  EXPECT_EQ(lexed.tokens[2].kind, qdlint::TokKind::kString);
  EXPECT_EQ(lexed.tokens[2].text, "rand() \\\" quoted");
  bool has_rand_ident = false;
  for (const auto& t : lexed.tokens) {
    has_rand_ident |= t.kind == qdlint::TokKind::kIdent && t.text == "rand";
  }
  EXPECT_FALSE(has_rand_ident);
}

TEST(LintLexer, RawStringsWithDelimitersAreOpaque) {
  const auto lexed = qdlint::lex("auto s = R\"delim(srand(1) )\" still inside)delim\"; g();");
  bool has_srand = false;
  bool has_g = false;
  for (const auto& t : lexed.tokens) {
    has_srand |= t.kind == qdlint::TokKind::kIdent && t.text == "srand";
    has_g |= t.kind == qdlint::TokKind::kIdent && t.text == "g";
  }
  EXPECT_FALSE(has_srand) << "raw string content leaked into tokens";
  EXPECT_TRUE(has_g) << "lexer lost its place after the raw string";
}

TEST(LintLexer, PreprocessorDirectivesAreSingleTokens) {
  const auto lexed = qdlint::lex("#pragma once\n#define ADD(a, b) \\\n  ((a) + (b))\nint z;");
  ASSERT_GE(lexed.tokens.size(), 2u);
  EXPECT_EQ(lexed.tokens[0].kind, qdlint::TokKind::kPreproc);
  EXPECT_EQ(lexed.tokens[0].text, "#pragma once");
  EXPECT_EQ(lexed.tokens[1].kind, qdlint::TokKind::kPreproc);
  EXPECT_NE(lexed.tokens[1].text.find("((a) + (b))"), std::string::npos)
      << "continuation line not joined: " << lexed.tokens[1].text;
}

TEST(LintLexer, HarvestsSuppressions) {
  const auto lexed = qdlint::lex(
      "int a;  // NOLINT(qdlint-num-float-eq, qdlint-det-rand)\n"
      "// NOLINTNEXTLINE(qdlint-api-raw-io)\n"
      "int b;  // NOLINT\n"
      "// qdlint: shared-write(disjoint rows)\n");
  const auto& nolint = lexed.marks.nolint;
  ASSERT_TRUE(nolint.count(1));
  EXPECT_TRUE(nolint.at(1).count("qdlint-num-float-eq"));
  EXPECT_TRUE(nolint.at(1).count("qdlint-det-rand"));
  ASSERT_TRUE(nolint.count(3));
  EXPECT_TRUE(nolint.at(3).count("qdlint-api-raw-io"));  // NEXTLINE folded onto 3
  EXPECT_TRUE(nolint.at(3).count("*"));                  // bare NOLINT on 3
  EXPECT_TRUE(lexed.marks.shared_write.count(4));
}

// ---------------------------------------------------------------------------
// Golden fixture test
// ---------------------------------------------------------------------------

TEST(LintGolden, FixturesMatchGolden) {
  std::vector<std::string> actual;
  for (const auto& [fixture, relpath] : kFixtureContexts) {
    (void)relpath;
    for (const auto& f : analyze_fixture(fixture)) {
      actual.push_back(fixture + "|" + f.rule + "|" + std::to_string(f.line));
    }
  }
  std::sort(actual.begin(), actual.end());

  std::vector<std::string> expected;
  std::istringstream golden(read_fixture("expected_findings.txt"));
  std::string line;
  while (std::getline(golden, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    expected.push_back(line);
  }
  std::sort(expected.begin(), expected.end());

  EXPECT_EQ(actual, expected);
}

TEST(LintGolden, CleanTrickyFixtureIsSilent) {
  const auto findings = analyze_fixture("clean_tricky.cc");
  EXPECT_TRUE(findings.empty()) << findings.size() << " unexpected finding(s), first: "
                                << (findings.empty() ? "" : findings[0].rule + " at line " +
                                                                std::to_string(findings[0].line));
}

// ---------------------------------------------------------------------------
// Rule behavior on inline sources
// ---------------------------------------------------------------------------

TEST(LintRules, HardwareConcurrencyQueryIsAllowed) {
  const auto fs = analyze_as("src/fake/x.cpp",
                             "unsigned n = std::thread::hardware_concurrency();");
  EXPECT_TRUE(fs.empty());
}

TEST(LintRules, RawThreadFiresOutsidePoolButNotInside) {
  const std::string src = "#include <thread>\nstd::thread t;\n";
  EXPECT_EQ(rules_of(analyze_as("src/fake/x.cpp", src)),
            std::vector<std::string>{"conc-raw-thread"});
  EXPECT_TRUE(analyze_as("src/util/thread_pool.cpp", src).empty());
}

TEST(LintRules, RawIoAllowedInLoggingToolsAndBench) {
  const std::string src = "#include <iostream>\nvoid f() { std::cout << 1; }\n";
  EXPECT_EQ(rules_of(analyze_as("src/fake/x.cpp", src)), std::vector<std::string>{"api-raw-io"});
  EXPECT_TRUE(analyze_as("src/util/logging.cpp", src).empty());
  EXPECT_TRUE(analyze_as("tools/some_cli.cpp", src).empty());
  EXPECT_TRUE(analyze_as("bench/some_bench.cpp", src).empty());
}

TEST(LintRules, DurableIoFiresEverywhereExceptStoreAndUtil) {
  const std::string src = "#include <fstream>\nstd::ofstream out(\"x.bin\");\n";
  EXPECT_EQ(rules_of(analyze_as("src/fake/x.cpp", src)),
            std::vector<std::string>{"api-durable-io"});
  // Unlike api-raw-io, tools and bench persist artifacts too — they are NOT
  // exempt; only the crash-safe layers' own implementations are.
  EXPECT_EQ(rules_of(analyze_as("tools/some_cli.cpp", src)),
            std::vector<std::string>{"api-durable-io"});
  EXPECT_EQ(rules_of(analyze_as("bench/some_bench.cpp", src)),
            std::vector<std::string>{"api-durable-io"});
  EXPECT_TRUE(analyze_as("src/store/pager.cpp", src).empty());
  EXPECT_TRUE(analyze_as("src/util/atomic_file.cpp", src).empty());
}

TEST(LintRules, DurableIoDistinguishesFopenModes) {
  EXPECT_EQ(rules_of(analyze_as("src/fake/x.cpp", "auto* f = std::fopen(p, \"wb\");\n")),
            std::vector<std::string>{"api-durable-io"});
  EXPECT_EQ(rules_of(analyze_as("src/fake/x.cpp", "auto* f = std::fopen(p, \"a\");\n")),
            std::vector<std::string>{"api-durable-io"});
  // A non-literal mode cannot be proven read-only: flagged.
  EXPECT_EQ(rules_of(analyze_as("src/fake/x.cpp", "auto* f = std::fopen(p, mode());\n")),
            std::vector<std::string>{"api-durable-io"});
  EXPECT_TRUE(analyze_as("src/fake/x.cpp", "auto* f = std::fopen(p, \"rb\");\n").empty());
  EXPECT_TRUE(analyze_as("src/fake/x.cpp", "std::ifstream in(p);\n").empty());
}

TEST(LintRules, NetIoFiresEverywhereExceptSrcNet) {
  const std::string src = "void f(int fd, const void* b) { ::send(fd, b, 8, 0); }\n";
  EXPECT_EQ(rules_of(analyze_as("src/fake/x.cpp", src)), std::vector<std::string>{"api-net-io"});
  // tools and bench speak to the service over net::Io like everyone else.
  EXPECT_EQ(rules_of(analyze_as("tools/some_cli.cpp", src)),
            std::vector<std::string>{"api-net-io"});
  EXPECT_EQ(rules_of(analyze_as("bench/some_bench.cpp", src)),
            std::vector<std::string>{"api-net-io"});
  EXPECT_TRUE(analyze_as("src/net/socket.cpp", src).empty());
}

TEST(LintRules, NetIoIgnoresMembersAndNamespaceQualification) {
  EXPECT_TRUE(analyze_as("src/fake/x.cpp", "void f(C& c) { c.send(b, 8); }\n").empty());
  EXPECT_TRUE(analyze_as("src/fake/x.cpp", "void f(C* c) { c->send(b, 8); }\n").empty());
  EXPECT_TRUE(analyze_as("src/fake/x.cpp", "auto g = std::bind(f, 1);\n").empty());
  EXPECT_TRUE(analyze_as("src/fake/x.cpp", "void f() { Channel::listen(16); }\n").empty());
  EXPECT_EQ(rules_of(analyze_as("src/fake/x.cpp", "void f(int s) { listen(s, 16); }\n")),
            std::vector<std::string>{"api-net-io"});
}

TEST(LintRules, PragmaOnceSatisfiedHeaderIsSilent) {
  EXPECT_TRUE(analyze_as("src/fake/h.h", "#pragma once\nstruct S {};\n").empty());
  EXPECT_EQ(rules_of(analyze_as("src/fake/h.h", "struct S {};\n")),
            std::vector<std::string>{"api-pragma-once"});
}

TEST(LintRules, UnorderedLookupWithoutIterationIsSilent) {
  // find/count/emplace on an unordered_map are deterministic; only iteration
  // order is not. Mirrors the autograd grads map in src/autograd/var.cpp.
  const std::string src =
      "#include <unordered_map>\n"
      "int f(std::unordered_map<void*, int> grads, void* k) {\n"
      "  auto it = grads.find(k);\n"
      "  return it == grads.end() ? grads.count(k) : it->second;\n"
      "}\n";
  EXPECT_TRUE(analyze_as("src/fake/x.cpp", src).empty());
}

TEST(LintRules, SharedWriteAnnotationOnSameLineAlsoCounts) {
  const std::string src =
      "void f(ThreadPool& p, int* o) {\n"
      "  p.run_chunks(4, [&](int c) { o[c] = c; });  // qdlint: shared-write(disjoint o[c])\n"
      "}\n";
  EXPECT_TRUE(analyze_as("src/fake/x.cpp", src).empty());
}

TEST(LintRules, ExplicitCaptureInParallelRegionIsSilent) {
  const std::string src =
      "void f(ThreadPool& p, int* o) {\n"
      "  p.run_chunks(4, [o](int c) { o[c] = c; });\n"
      "}\n";
  EXPECT_TRUE(analyze_as("src/fake/x.cpp", src).empty());
}

TEST(LintRules, FlatStateRuleFiresInSrcButNotInStateImplOrTests) {
  const std::string src = "std::vector<Tensor> state;\n";
  EXPECT_EQ(rules_of(analyze_as("src/fl/fedavg.cpp", src)),
            std::vector<std::string>{"api-flatstate"});
  EXPECT_EQ(rules_of(analyze_as("src/core/checkpoint.cpp", "std::vector<nn::Tensor> s;\n")),
            std::vector<std::string>{"api-flatstate"});
  // The parameter plane's own implementation may talk per-tensor.
  EXPECT_TRUE(analyze_as("src/nn/state.cpp", src).empty());
  EXPECT_TRUE(analyze_as("src/nn/state.h", "#pragma once\n" + src).empty());
  // Out of scope: tests/tools/bench are free to build per-tensor fixtures.
  EXPECT_TRUE(analyze_as("tests/nn/x.cpp", src).empty());
  EXPECT_TRUE(analyze_as("tools/some_cli.cpp", src).empty());
}

TEST(LintRules, SimdLaneEqFlagsFloatLanesOnly) {
  // Equality on float/double lanes fires; integer lanes and ordering
  // predicates do not.
  EXPECT_EQ(rules_of(analyze_as("src/fake/x.cpp", "auto m = _mm256_cmp_ps(a, b, _CMP_EQ_OQ);\n")),
            std::vector<std::string>{"num-simd-lane-eq"});
  EXPECT_EQ(rules_of(analyze_as("src/fake/x.cpp", "auto m = _mm_cmpeq_ss(a, b);\n")),
            std::vector<std::string>{"num-simd-lane-eq"});
  EXPECT_TRUE(analyze_as("src/fake/x.cpp", "auto m = _mm256_cmp_ps(a, b, _CMP_LE_OQ);\n").empty());
  EXPECT_TRUE(analyze_as("src/fake/x.cpp", "auto m = _mm256_cmpeq_epi32(a, b);\n").empty());
  // Out of scope: tests may compare lanes exactly (that is what parity means).
  EXPECT_TRUE(analyze_as("tests/tensor/x.cpp", "auto m = _mm_cmpeq_ps(a, b);\n").empty());
}

TEST(LintRules, SimdLaneEqSuppressibleLikeFloatEq) {
  const std::string src =
      "// NOLINTNEXTLINE(qdlint-num-simd-lane-eq)\n"
      "auto m = _mm256_cmp_ps(x, zero, _CMP_EQ_OQ);\n";
  EXPECT_TRUE(analyze_as("src/fake/x.cpp", src).empty());
}

TEST(LintRules, SimdStoreRequiresAnnotationInKernelTus) {
  const std::string bare = "void f(float* y, __m256 v) { _mm256_storeu_ps(y, v); }\n";
  EXPECT_EQ(rules_of(analyze_as("src/tensor/x.cpp", bare)),
            std::vector<std::string>{"conc-simd-store"});
  // Same line or line-above annotations both satisfy the rule, mirroring
  // conc-ref-capture.
  EXPECT_TRUE(analyze_as("src/tensor/x.cpp",
                         "void f(float* y, __m256 v) {\n"
                         "  _mm256_storeu_ps(y, v);  // qdlint: shared-write(disjoint rows)\n"
                         "}\n")
                  .empty());
  EXPECT_TRUE(analyze_as("src/tensor/x.cpp",
                         "void f(float* y, __m256 v) {\n"
                         "  // qdlint: shared-write(each chunk owns y[lo,hi))\n"
                         "  _mm256_stream_ps(y, v);\n"
                         "}\n")
                  .empty());
  // Loads are reads; non-kernel TUs are out of scope.
  EXPECT_TRUE(analyze_as("src/tensor/x.cpp", "auto v = _mm256_loadu_ps(y);\n").empty());
  EXPECT_TRUE(analyze_as("src/fake/x.cpp", bare).empty());
}

TEST(LintRules, TimeSeedOutsideSeedContextIsSilent) {
  // Timing a computation with steady_clock is fine; only seeding from it is
  // flagged.
  const std::string src = "auto t0 = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(analyze_as("src/fake/x.cpp", src).empty());
}

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------

TEST(LintBaseline, SubtractionRemovesGrandfatheredFindings) {
  const std::string src = "bool f(float x) { return x == 0.5f; }\n";
  const auto findings = analyze_as("src/fake/x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  const std::string line_text = "bool f(float x) { return x == 0.5f; }";

  const std::string key = qdlint::baseline_key(findings[0], line_text);
  EXPECT_EQ(key, "src/fake/x.cpp|num-float-eq|bool f(float x) { return x == 0.5f; }");

  const auto baseline = qdlint::parse_baseline("# comment\n\n" + key + "\n");
  EXPECT_TRUE(qdlint::subtract_baseline(findings, baseline, {line_text}).empty());

  // A different file/rule/text does not match.
  const auto other = qdlint::parse_baseline("src/other.cpp|num-float-eq|" + line_text + "\n");
  EXPECT_EQ(qdlint::subtract_baseline(findings, other, {line_text}).size(), 1u);
}

TEST(LintBaseline, EachEntryGrandfathersOneOccurrence) {
  const std::string stmt = "bool g(float x, float y) { return x == 0.5f && y == 0.5f; }";
  const auto findings = analyze_as("src/fake/x.cpp", stmt + "\n");
  ASSERT_EQ(findings.size(), 2u);
  const std::vector<std::string> texts = {stmt, stmt};
  const std::string key = qdlint::baseline_key(findings[0], stmt);

  // One entry -> one of the two findings survives.
  EXPECT_EQ(qdlint::subtract_baseline(findings, qdlint::parse_baseline(key + "\n"), texts).size(),
            1u);
  // Two entries -> both grandfathered.
  EXPECT_TRUE(
      qdlint::subtract_baseline(findings, qdlint::parse_baseline(key + "\n" + key + "\n"), texts)
          .empty());
}

// ---------------------------------------------------------------------------
// Flow-sensitive rules: conc-lock-scope
// ---------------------------------------------------------------------------

TEST(LintFlow, BalancedLockOnEveryPathIsSilent) {
  const std::string src =
      "std::mutex mu;\n"
      "int f(bool b) {\n"
      "  mu.lock();\n"
      "  if (b) {\n"
      "    mu.unlock();\n"
      "    return -1;\n"
      "  }\n"
      "  mu.unlock();\n"
      "  return 0;\n"
      "}\n";
  EXPECT_TRUE(analyze_as("src/fake/x.cpp", src).empty());
}

TEST(LintFlow, EarlyReturnLeakFiresAtTheLockLine) {
  const std::string src =
      "std::mutex mu;\n"
      "int f(bool b) {\n"
      "  mu.lock();\n"
      "  if (b) return 1;\n"
      "  mu.unlock();\n"
      "  return 0;\n"
      "}\n";
  const auto fs = analyze_as("src/fake/x.cpp", src);
  ASSERT_EQ(rules_of(fs), std::vector<std::string>{"conc-lock-scope"});
  EXPECT_EQ(fs[0].line, 3);
}

TEST(LintFlow, UnlockInOnlyOneBranchFires) {
  const std::string src =
      "std::mutex mu;\n"
      "void f(bool b) {\n"
      "  mu.lock();\n"
      "  if (b) mu.unlock();\n"
      "}\n";
  EXPECT_EQ(rules_of(analyze_as("src/fake/x.cpp", src)),
            std::vector<std::string>{"conc-lock-scope"});
}

TEST(LintFlow, OrphanUnlockFiresAtTheUnlockLine) {
  const std::string src =
      "std::mutex mu;\n"
      "void f(bool b) {\n"
      "  if (b) mu.lock();\n"
      "  mu.unlock();\n"
      "}\n";
  const auto fs = analyze_as("src/fake/x.cpp", src);
  ASSERT_EQ(rules_of(fs), std::vector<std::string>{"conc-lock-scope"});
  EXPECT_EQ(fs[0].line, 4);
}

TEST(LintFlow, LockGuardIsSilent) {
  const std::string src =
      "std::mutex mu;\n"
      "int f() {\n"
      "  std::lock_guard<std::mutex> g(mu);\n"
      "  return 0;\n"
      "}\n";
  EXPECT_TRUE(analyze_as("src/fake/x.cpp", src).empty());
}

TEST(LintFlow, PairInsideLoopBodyStaysBalanced) {
  const std::string src =
      "std::mutex mu;\n"
      "void f(int n) {\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    mu.lock();\n"
      "    mu.unlock();\n"
      "  }\n"
      "}\n";
  EXPECT_TRUE(analyze_as("src/fake/x.cpp", src).empty());
}

TEST(LintFlow, LambdaBodiesAreOpaqueToLockScope) {
  // A lambda may stash a lock for a callback to release later; the rule does
  // not look inside (documented approximation, DESIGN.md §14).
  const std::string src =
      "std::mutex mu;\n"
      "void f() {\n"
      "  auto locker = [] { mu.lock(); };\n"
      "  (void)locker;\n"
      "}\n";
  EXPECT_TRUE(analyze_as("src/fake/x.cpp", src).empty());
}

TEST(LintFlow, ThreadPoolFileIsExemptFromLockScope) {
  const std::string src =
      "std::mutex mu;\n"
      "void f(bool b) {\n"
      "  mu.lock();\n"
      "  if (b) return;\n"
      "  mu.unlock();\n"
      "}\n";
  EXPECT_TRUE(analyze_as("src/util/thread_pool.cpp", src).empty());
}

// ---------------------------------------------------------------------------
// Flow-sensitive rules: det-iter-order-escape
// ---------------------------------------------------------------------------

TEST(LintFlow, UnorderedLoopIntoStreamFires) {
  const std::string src =
      "#include <sstream>\n"
      "#include <unordered_map>\n"
      "std::string f(const std::unordered_map<int, int>& m) {\n"
      "  std::ostringstream os;\n"
      "  for (const auto& kv : m) os << kv.first;\n"
      "  return os.str();\n"
      "}\n";
  const auto fs = analyze_as("tools/x.cpp", src);
  ASSERT_EQ(rules_of(fs), std::vector<std::string>{"det-iter-order-escape"});
  EXPECT_EQ(fs[0].line, 5);
}

TEST(LintFlow, UnorderedLoopIntoDurableWriteFires) {
  const std::string src =
      "#include <unordered_map>\n"
      "void f(const std::unordered_map<int, int>& m) {\n"
      "  for (const auto& kv : m) {\n"
      "    write_file_atomic(\"out.bin\", pack(kv));\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(rules_of(analyze_as("tools/x.cpp", src)),
            std::vector<std::string>{"det-iter-order-escape"});
}

TEST(LintFlow, UnorderedLoopIntoLogMacroFires) {
  const std::string src =
      "#include <unordered_map>\n"
      "void f(const std::unordered_map<int, int>& m) {\n"
      "  for (auto it = m.begin(); it != m.end(); ++it) QD_LOG_INFO(\"k=%d\", it->first);\n"
      "}\n";
  EXPECT_EQ(rules_of(analyze_as("tools/x.cpp", src)),
            std::vector<std::string>{"det-iter-order-escape"});
}

TEST(LintFlow, OrderInsensitiveAccumulationIsSilent) {
  const std::string src =
      "#include <unordered_map>\n"
      "int f(const std::unordered_map<int, int>& m) {\n"
      "  int sum = 0;\n"
      "  for (const auto& kv : m) sum += kv.second;\n"
      "  return sum;\n"
      "}\n";
  EXPECT_TRUE(analyze_as("tools/x.cpp", src).empty());
}

TEST(LintFlow, SerializingASortedCopyIsSilent) {
  const std::string src =
      "#include <sstream>\n"
      "#include <unordered_map>\n"
      "#include <vector>\n"
      "std::string f(const std::unordered_map<int, int>& m) {\n"
      "  std::vector<int> keys;\n"
      "  for (const auto& kv : m) keys.push_back(kv.first);\n"
      "  std::sort(keys.begin(), keys.end());\n"
      "  std::ostringstream os;\n"
      "  for (int k : keys) os << k;\n"
      "  return os.str();\n"
      "}\n";
  EXPECT_TRUE(analyze_as("tools/x.cpp", src).empty());
}

TEST(LintFlow, IterOrderEscapeIsSuppressible) {
  const std::string src =
      "#include <sstream>\n"
      "#include <unordered_map>\n"
      "std::string f(const std::unordered_map<int, int>& m) {\n"
      "  std::ostringstream os;\n"
      "  // NOLINTNEXTLINE(qdlint-det-iter-order-escape)\n"
      "  for (const auto& kv : m) os << kv.first;\n"
      "  return os.str();\n"
      "}\n";
  EXPECT_TRUE(analyze_as("tools/x.cpp", src).empty());
}

TEST(LintBaseline, JsonOutputEscapes) {
  qdlint::Finding f{"api-raw-io", "src/a \"b\".cpp", 3, 7, "msg with \"quotes\"", "hint\nline"};
  const std::string json = qdlint::to_json({f});
  EXPECT_NE(json.find("\"file\": \"src/a \\\"b\\\".cpp\""), std::string::npos) << json;
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\"line\": 3"), std::string::npos);
}

}  // namespace
