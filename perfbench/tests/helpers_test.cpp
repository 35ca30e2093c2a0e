// Tests of the benchmark's own helpers: percentiles, span self time, the
// open-loop schedule and the HTTP response parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(NearestRank, PicksTheSampleAtRankCeilPN) {
  const std::vector<double> v{40, 15, 50, 35, 20};  // sorted: 15 20 35 40 50
  EXPECT_EQ(nearest_rank(v, 30), 20);
  EXPECT_EQ(nearest_rank(v, 40), 20);
  EXPECT_EQ(nearest_rank(v, 50), 35);
  EXPECT_EQ(nearest_rank(v, 100), 50);
  EXPECT_EQ(nearest_rank(v, 1), 15);
  EXPECT_EQ(median(v), 35);
}

TEST(NearestRank, RejectsEmptySamplesAndBadPercentiles) {
  EXPECT_THROW(nearest_rank({}, 50), std::invalid_argument);
  EXPECT_THROW(nearest_rank({1.0}, 0), std::invalid_argument);
  EXPECT_THROW(nearest_rank({1.0}, 101), std::invalid_argument);
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);
  return v;
}

TEST(Tail, IsTheHighestPercentileWithTenSamplesBeyondIt) {
  const Tail t100 = tail(one_to(100));
  EXPECT_EQ(t100.percentile, 90);
  EXPECT_EQ(t100.value, 90);
  EXPECT_EQ(t100.samples, 100u);

  const Tail t40 = tail(one_to(40));
  EXPECT_EQ(t40.percentile, 75);
  EXPECT_EQ(t40.value, 30);

  const Tail t1000 = tail(one_to(1000));
  EXPECT_EQ(t1000.percentile, 99);
  EXPECT_EQ(t1000.value, 990);

  // 20 samples: only the median leaves ten beyond it.
  const Tail t20 = tail(one_to(20));
  EXPECT_EQ(t20.percentile, 50);
  EXPECT_EQ(t20.value, 10);
}

TEST(Tail, FallsBackToTheMaximumWithTooFewSamples) {
  const Tail t = tail(one_to(15));
  EXPECT_EQ(t.percentile, 100);
  EXPECT_EQ(t.value, 15);
}

// ---------------------------------------------------------------------------

const LayerTime& layer(const std::map<std::string, LayerTime>& layers, const char* name) {
  const auto it = layers.find(name);
  EXPECT_NE(it, layers.end()) << name;
  return it->second;
}

TEST(LayerTimes, SelfTimeSubtractsTheUnionOfNestedChildren) {
  SpanRecorder rec(true);
  const auto root = rec.add(Span{.name = "root", .start_ns = 0, .end_ns = 100});
  // Two overlapping children cover [10, 50): 40 ns, not 20 + 30.
  const auto a = rec.add(Span{.name = "child", .start_ns = 10, .end_ns = 30, .parent = root});
  rec.add(Span{.name = "child", .start_ns = 20, .end_ns = 50, .parent = root});
  // A grandchild is subtracted from its parent only.
  rec.add(Span{.name = "leaf", .start_ns = 12, .end_ns = 18, .parent = a});
  const auto layers = layer_times(rec.spans());
  EXPECT_NEAR(layer(layers, "root").self_s, 60e-9, 1e-15);
  EXPECT_NEAR(layer(layers, "root").busy_s, 100e-9, 1e-15);
  EXPECT_NEAR(layer(layers, "child").busy_s, 50e-9, 1e-15);
  EXPECT_NEAR(layer(layers, "child").self_s, 44e-9, 1e-15);
  EXPECT_EQ(layer(layers, "child").calls, 2);
  EXPECT_NEAR(layer(layers, "leaf").self_s, 6e-9, 1e-15);
}

TEST(LayerTimes, ChildrenOnSeveralThreadsAreClippedAndMerged) {
  SpanRecorder rec(true);
  const auto root = rec.add(Span{.name = "round", .start_ns = 0, .end_ns = 100, .thread = 0});
  rec.add(Span{.name = "fwd", .start_ns = 10, .end_ns = 40, .parent = root, .thread = 1});
  rec.add(Span{.name = "fwd", .start_ns = 30, .end_ns = 60, .parent = root, .thread = 2});
  // Runs past its parent's end: only [90, 100) counts against the parent.
  rec.add(Span{.name = "fwd", .start_ns = 90, .end_ns = 130, .parent = root, .thread = 3});
  const auto layers = layer_times(rec.spans());
  EXPECT_NEAR(layer(layers, "round").self_s, 40e-9, 1e-15);
  EXPECT_NEAR(layer(layers, "fwd").busy_s, 100e-9, 1e-15);
}

TEST(SpanRecorder, WorkerSpansHangOffTheRootThreadsOpenSpan) {
  SpanRecorder rec(true);
  rec.set_root_thread();
  {
    SpanRecorder::Scope outer(&rec, "outer", 7);
    { SpanRecorder::Scope inner(&rec, "inner"); }
    std::thread worker([&rec] {
      SpanRecorder::Scope work(&rec, "work");
      work.add_rows(32);
    });
    worker.join();
  }
  const auto spans = rec.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[0].request, 7);
  EXPECT_EQ(spans[1].parent, 0);  // same thread
  EXPECT_EQ(spans[2].parent, 0);  // worker thread, via the root thread
  EXPECT_NE(spans[2].thread, spans[0].thread);
  EXPECT_EQ(spans[2].rows, 32);
  for (const auto& s : spans) EXPECT_LE(s.start_ns, s.end_ns);
}

TEST(SpanRecorder, TagRequestLabelsOnlyUntaggedSpansInTheWindow) {
  SpanRecorder rec(true);
  rec.add(Span{.name = "a", .start_ns = 10, .end_ns = 20, .thread = 1});
  rec.add(Span{.name = "b", .start_ns = 15, .end_ns = 25, .thread = 2});
  rec.add(Span{.name = "c", .start_ns = 12, .end_ns = 18, .thread = 1, .request = 3});
  rec.add(Span{.name = "d", .start_ns = 30, .end_ns = 40, .thread = 1});
  rec.tag_request(1, 0, 25, 9);
  const auto spans = rec.spans();
  EXPECT_EQ(spans[0].request, 9);
  EXPECT_EQ(spans[1].request, -1);  // other thread
  EXPECT_EQ(spans[2].request, 3);   // already tagged
  EXPECT_EQ(spans[3].request, -1);  // outside the window
}

TEST(SpanRecorder, DisabledRecorderRecordsNothing) {
  SpanRecorder rec(false);
  { SpanRecorder::Scope s(&rec, "x"); }
  EXPECT_EQ(rec.add(Span{.name = "y", .start_ns = 0, .end_ns = 1}), -1);
  EXPECT_TRUE(rec.spans().empty());
}

// ---------------------------------------------------------------------------

ScheduleSpec spec() {
  ScheduleSpec s;
  s.seconds = 20.0;
  s.tokens = {"tok-a", "tok-b"};
  return s;
}

TEST(Schedule, IsReproducibleFromItsSeed) {
  const auto a = make_schedule(spec(), 7);
  const auto b = make_schedule(spec(), 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(render_request(a[i]), render_request(b[i]));
  }
  const auto c = make_schedule(spec(), 8);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].due_s != c[i].due_s || render_request(a[i]) != render_request(c[i]);
  }
  EXPECT_TRUE(differs);
}

TEST(Schedule, EverySeedNamesTheSameWellFormedTargets) {
  const auto targets = [](std::uint64_t seed) {
    std::vector<std::string> bodies;
    for (const auto& p : make_schedule(spec(), seed)) {
      if (p.expect == Expect::kAdmitOrReject) bodies.push_back(p.body);
    }
    std::sort(bodies.begin(), bodies.end());
    return bodies;
  };
  const auto a = targets(1);
  EXPECT_EQ(a, targets(2));
  // 15 POSTs: 2 unauthorized (10%), 2 out of range (15%), 11 well-formed:
  // classes 0-8 and clients 0-1, one client request in every four.
  ASSERT_EQ(a.size(), 11u);
  EXPECT_NE(std::find(a.begin(), a.end(), "{\"kind\": \"class\", \"target\": 8}"), a.end());
  EXPECT_NE(std::find(a.begin(), a.end(), "{\"kind\": \"client\", \"target\": 1}"), a.end());
  EXPECT_EQ(std::find(a.begin(), a.end(), "{\"kind\": \"client\", \"target\": 2}"), a.end());
}

TEST(Schedule, OffersTheConfiguredLoadInDueOrder) {
  const ScheduleSpec s = spec();
  const auto schedule = make_schedule(s, 3);
  std::size_t unlearn = 0;
  std::size_t metrics = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const auto& p = schedule[i];
    if (i > 0) {
      EXPECT_LE(schedule[i - 1].due_s, p.due_s);
    }
    EXPECT_GE(p.due_s, 0.0);
    EXPECT_LT(p.due_s, s.seconds);
    (p.op == Op::kUnlearn ? unlearn : metrics) += 1;
  }
  EXPECT_EQ(unlearn, static_cast<std::size_t>(kUnlearnPerS * s.seconds + 0.5));
  EXPECT_EQ(metrics, static_cast<std::size_t>(kMetricsPerS * s.seconds + 0.5));
}

TEST(ExponentialGap, FollowsTheSeedWithTheRequestedMean) {
  quickdrop::Rng a(11);
  quickdrop::Rng b(11);
  double sum = 0.0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const double gap = exponential_gap(a, 0.1);
    EXPECT_EQ(gap, exponential_gap(b, 0.1));
    EXPECT_GE(gap, 0.0);
    sum += gap;
  }
  EXPECT_NEAR(sum / kDraws, 0.1, 0.005);
}

// ---------------------------------------------------------------------------

TEST(ResponseParser, ParsesStatusAndContentLengthBody) {
  ResponseParser p;
  const std::string r =
      "HTTP/1.1 202 Accepted\r\nContent-Type: application/json\r\nContent-Length: 13\r\n\r\n"
      "{\"id\": 4}\n   ";
  EXPECT_EQ(p.feed(r.data(), r.size() - 3), ResponseParser::State::kIncomplete);
  EXPECT_EQ(p.feed(r.data() + r.size() - 3, 3), ResponseParser::State::kComplete);
  EXPECT_EQ(p.response().status, 202);
  EXPECT_EQ(p.response().body, "{\"id\": 4}\n   ");
  EXPECT_EQ(p.finish(), ResponseParser::State::kComplete);
}

TEST(ResponseParser, AcceptsAResponseFedOneByteAtATime) {
  ResponseParser p;
  const std::string r = "HTTP/1.1 401 Unauthorized\r\ncontent-length: 2\r\n\r\n{}";
  for (std::size_t i = 0; i + 1 < r.size(); ++i) {
    ASSERT_EQ(p.feed(&r[i], 1), ResponseParser::State::kIncomplete) << i;
  }
  EXPECT_EQ(p.feed(&r.back(), 1), ResponseParser::State::kComplete);
  EXPECT_EQ(p.response().status, 401);
  EXPECT_EQ(p.response().body, "{}");
}

TEST(ResponseParser, ZeroLengthBodyCompletesAtTheHead) {
  ResponseParser p;
  const std::string r = "HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n";
  EXPECT_EQ(p.feed(r.data(), r.size()), ResponseParser::State::kComplete);
  EXPECT_EQ(p.response().body, "");
}

TEST(ResponseParser, TruncatedResponsesAreMalformedAtEof) {
  const std::string full = "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n0123456789";
  for (std::size_t cut : {std::size_t{0}, std::size_t{5}, std::size_t{20}, full.size() - 1}) {
    ResponseParser p;
    p.feed(full.data(), cut);
    EXPECT_EQ(p.finish(), ResponseParser::State::kMalformed) << cut;
    EXPECT_EQ(p.error(), "truncated response");
  }
}

TEST(ResponseParser, RejectsMalformedHeads) {
  const std::vector<std::string> bad{
      "HTTP/1.1 200 OK\r\n\r\n{}",                                  // no Content-Length
      "HTTP/1.1 200 OK\r\nContent-Length: 1x\r\n\r\n{}",            // not a number
      "HTTP/1.1 200 OK\r\nContent-Length: 9999999999\r\n\r\n",      // too long
      "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}",
      "HTTP/2 200 OK\r\nContent-Length: 2\r\n\r\n{}",               // not HTTP/1.x
      "HTTP/1.1 2x0 OK\r\nContent-Length: 2\r\n\r\n{}",             // bad status
      "HTTP/1.1 200 OK\r\nno colon here\r\n\r\n{}",                 // bad header
      "HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\n{}",             // bytes after the body
  };
  for (const auto& r : bad) {
    ResponseParser p;
    EXPECT_EQ(p.feed(r.data(), r.size()), ResponseParser::State::kMalformed) << r;
  }
}

TEST(ResponseParser, RejectsAnOversizedHead) {
  ResponseParser p;
  const std::string junk(17u << 10, 'a');
  EXPECT_EQ(p.feed(junk.data(), junk.size()), ResponseParser::State::kMalformed);
}

TEST(Json, ValidatesCompleteValues) {
  EXPECT_TRUE(json_valid("{\"id\": 3, \"status\": \"queued\"}\n"));
  EXPECT_TRUE(json_valid("{\"a\": [1, -2.5e3, true, null], \"b\": {\"c\": \"\\u00e9\"}}"));
  EXPECT_FALSE(json_valid(""));
  EXPECT_FALSE(json_valid("{\"a\": 1,}"));
  EXPECT_FALSE(json_valid("{\"a\": 1} x"));
  EXPECT_FALSE(json_valid("{\"a\": 01x}"));
  EXPECT_FALSE(json_valid("{\"a\": \"unterminated}"));
  EXPECT_EQ(json_field("{\"id\": 17, \"status\": \"completed\"}", "status"), "completed");
  EXPECT_EQ(json_field("{\"id\": 17, \"status\": \"completed\"}", "id"), "17");
  EXPECT_EQ(json_field("{\"id\": 17}", "status"), std::nullopt);
}

}  // namespace
}  // namespace perfbench
