// Trace generation determinism and text round-trips.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <utility>

#include "serve/trace.h"

namespace quickdrop::serve {
namespace {

TEST(TraceTest, GenerationIsDeterministicInSeed) {
  ArrivalConfig config;
  config.num_requests = 12;
  config.num_classes = 6;
  config.num_clients = 8;
  config.priority_levels = 3;
  Rng a(1234);
  Rng b(1234);
  const auto ta = generate_trace(config, a);
  const auto tb = generate_trace(config, b);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].kind, tb[i].kind) << i;
    EXPECT_EQ(ta[i].target, tb[i].target) << i;
    EXPECT_EQ(ta[i].arrival_seconds, tb[i].arrival_seconds) << i;  // NOLINT bitwise contract
    EXPECT_EQ(ta[i].priority, tb[i].priority) << i;
  }
  Rng c(99);
  const auto tc = generate_trace(config, c);
  bool any_diff = ta.size() != tc.size();
  for (std::size_t i = 0; !any_diff && i < ta.size(); ++i) {
    any_diff = ta[i].target != tc[i].target ||
               ta[i].arrival_seconds != tc[i].arrival_seconds;  // NOLINT bitwise contract
  }
  EXPECT_TRUE(any_diff) << "different seeds should differ somewhere";
}

TEST(TraceTest, ArrivalsAreSortedAndTargetsUniquePerKind) {
  ArrivalConfig config;
  config.num_requests = 10;
  config.num_classes = 10;
  config.num_clients = 4;
  Rng rng(7);
  const auto trace = generate_trace(config, rng);
  ASSERT_FALSE(trace.empty());
  std::set<std::pair<int, int>> seen;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i > 0) EXPECT_GE(trace[i].arrival_seconds, trace[i - 1].arrival_seconds);
    EXPECT_TRUE(seen.insert({static_cast<int>(trace[i].kind), trace[i].target}).second)
        << "duplicate target without allow_duplicates";
    if (trace[i].kind == RequestKind::kClass) {
      EXPECT_GE(trace[i].target, 0);
      EXPECT_LT(trace[i].target, config.num_classes);
    } else {
      EXPECT_GE(trace[i].target, 0);
      EXPECT_LT(trace[i].target, config.num_clients);
    }
  }
}

TEST(TraceTest, TextRoundTripIsExact) {
  ArrivalConfig config;
  config.num_requests = 9;
  config.priority_levels = 4;
  config.client_fraction = 0.5;
  Rng rng(42);
  const auto trace = generate_trace(config, rng);

  const auto parsed = parse_trace(format_trace(trace));
  ASSERT_EQ(parsed.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(parsed[i].kind, trace[i].kind) << i;
    EXPECT_EQ(parsed[i].target, trace[i].target) << i;
    EXPECT_EQ(parsed[i].arrival_seconds, trace[i].arrival_seconds)  // NOLINT bitwise contract
        << i << ": arrival must round-trip bit-exactly";
    EXPECT_EQ(parsed[i].priority, trace[i].priority) << i;
  }
}

TEST(TraceTest, ParseSkipsCommentsAndSortsByArrival) {
  const auto trace = parse_trace(
      "# a hand-edited trace, deliberately out of order\n"
      "\n"
      "120.5 class 3\n"
      "10 client 1 prio=2\n");
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].kind, RequestKind::kClient);
  EXPECT_EQ(trace[0].target, 1);
  EXPECT_EQ(trace[0].priority, 2);
  EXPECT_EQ(trace[1].kind, RequestKind::kClass);
  EXPECT_EQ(trace[1].target, 3);
}

TEST(TraceTest, ParseRejectsMalformedLines) {
  EXPECT_THROW(parse_request("12.0 shard 3"), std::invalid_argument);      // unknown kind
  EXPECT_THROW(parse_request("abc class 3"), std::invalid_argument);       // bad arrival
  EXPECT_THROW(parse_request("1.0 class"), std::invalid_argument);         // missing target
  EXPECT_THROW(parse_request("1.0 sample 2"), std::invalid_argument);      // not served
  EXPECT_THROW(parse_request("1.0 class 3 what=1"), std::invalid_argument);  // unknown field
  EXPECT_THROW(parse_request("1.0 client 2 rows=1"), std::invalid_argument);  // unknown field
}

TEST(TraceTest, ParseReportsLineNumbersInTypedErrors) {
  // Errors surface as TraceError carrying the 1-based line of the offender,
  // comments and blanks included in the count.
  try {
    parse_trace("# header\n1.0 class 3\n\n2.0 shard 9\n");
    FAIL() << "expected TraceError";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.line_number, 4);
    EXPECT_NE(std::string(e.what()).find("trace line 4"), std::string::npos);
  }
  // Sample-level erasure is not a served kind: a sample line, rows and all,
  // is refused like any unknown kind, with its line number.
  try {
    parse_trace("1.0 class 3\n2.0 client 1\n1.0 sample 2 rows=1\n");
    FAIL() << "expected TraceError";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.line_number, 3);
    EXPECT_NE(std::string(e.what()).find("'sample'"), std::string::npos) << e.what();
  }
  // TraceError IS-A invalid_argument, so pre-existing catch sites still work.
  EXPECT_THROW(parse_trace("1.0 class notanint\n"), std::invalid_argument);
}

TEST(TraceTest, ParseRejectsMidLineTruncation) {
  // A crash mid-write leaves the final line without its newline; the parser
  // must refuse the file rather than silently accept a possibly-torn record.
  try {
    parse_trace("1.0 class 3\n2.0 client 1");
    FAIL() << "expected TraceError";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.line_number, 2);
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
  // Same text with its newline restored parses fine.
  EXPECT_EQ(parse_trace("1.0 class 3\n2.0 client 1\n").size(), 2u);
}

TEST(TraceTest, ParseRejectsOverlongLines) {
  // Binary garbage fed as a trace tends to decode as one enormous "line";
  // cap at 4096 bytes with a typed error instead of attempting to tokenize.
  std::string text = "1.0 class 3\n2.0 client 1 ";
  text.append(5000, 'x');
  text += "\n";
  try {
    parse_trace(text);
    FAIL() << "expected TraceError";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.line_number, 2);
    EXPECT_NE(std::string(e.what()).find("4096"), std::string::npos);
  }
}

TEST(TraceTest, ParseWrapsOutOfRangeNumbersWithLineNumbers) {
  // std::stoi/stod throw out_of_range, not invalid_argument; the parser must
  // translate those into line-numbered TraceErrors too.
  try {
    parse_trace("1.0 class 99999999999999999999\n");
    FAIL() << "expected TraceError";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.line_number, 1);
  }
}

TEST(TraceTest, GenerateRejectsNonsense) {
  Rng rng(1);
  ArrivalConfig bad;
  bad.num_requests = -1;
  EXPECT_THROW(generate_trace(bad, rng), std::invalid_argument);
  bad = ArrivalConfig{};
  bad.mean_interarrival_seconds = -1.0;
  EXPECT_THROW(generate_trace(bad, rng), std::invalid_argument);
  bad = ArrivalConfig{};
  bad.client_fraction = 1.5;
  EXPECT_THROW(generate_trace(bad, rng), std::invalid_argument);
}

}  // namespace
}  // namespace quickdrop::serve
