// Open-loop HTTP load generator for the serve_http workload.
//
// Independent users submit unlearning requests and poll for their results,
// so the generator is an open loop: each request has a due time fixed by a
// seeded schedule, is sent when due whatever the server is doing, and its
// latency runs from the due time. When every connection slot is busy the
// request waits in the generator and that wait counts (lateness is reported
// separately). One thread drives up to `max_in_flight` non-blocking TCP
// connections with poll(); each request uses one connection, half-closed
// after the request is written, which is how net::serve_http ends a
// connection.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.h"

namespace perfbench {

/// Tags of the random streams split off the run seed (quickdrop::Rng::split),
/// one per decision, so drawing more from one leaves the others unchanged.
enum RandomStream : std::uint64_t {
  kPostTimes = 1,  ///< due times of POST /unlearn
  kPostKinds,      ///< where the malformed POSTs fall
  kPostFields,     ///< tenants and out-of-range targets
  kMetricsTimes,   ///< due times of GET /metrics
  kPollGaps,       ///< gaps between one user's polls
  kRequestOrder,   ///< order of the in-process unlearning requests
};

/// An exponential gap with the given mean, drawn as -mean * log(1 - u) so
/// it follows the seed on every platform.
double exponential_gap(quickdrop::Rng& rng, double mean);

// ---------------------------------------------------------------------------
// Schedule

enum class Op { kUnlearn, kPoll, kMetrics };

/// What a request was built to provoke; fixes the statuses that count as
/// correct.
enum class Expect {
  kAdmitOrReject,  ///< a well-formed request: 202, or 400 "rejected" by the validator
  kReject,         ///< a target out of range: 400 "rejected"
  kUnauthorized,   ///< an unknown bearer token: 401
  kOk,             ///< poll or metrics: 200
};

struct Planned {
  double due_s = 0.0;  ///< seconds after the run starts
  Op op = Op::kUnlearn;
  Expect expect = Expect::kOk;
  std::string token;   ///< bearer token sent
  std::string target;  ///< request target, e.g. "/unlearn"
  std::string body;    ///< JSON body for POST
  std::int64_t request_id = -1;  ///< the unlearning request a poll is for
  std::int64_t bench_id = -1;    ///< sent as X-Bench-Id when >= 0, to match server spans
};

// The traffic mix. NOTES.md ("Open-loop generator") says where each value
// comes from and records the drain utilisation and backlog at this load.

/// POST /unlearn arrivals per second: with unlearning cycles of about
/// 0.4 s, the drain is busy for about a fifth of the time and the queue
/// never grows (measured figures in NOTES.md).
inline constexpr double kUnlearnPerS = 0.75;
/// GET /metrics arrivals per second (an arbitrary choice: a dashboard
/// scraping the service several times a second).
inline constexpr double kMetricsPerS = 5.0;
/// Shares of the POSTs, rounded to whole requests, sent with an unknown
/// bearer token (401) and with an out-of-range target (validator 400).
/// Arbitrary small shares that exercise both rejection paths in every run.
inline constexpr double kUnauthorizedShare = 0.1;
inline constexpr double kOutOfRangeShare = 0.15;
/// Share of the well-formed POSTs that are client-level:
/// serve::ArrivalConfig's default client_fraction.
inline constexpr double kClientShare = 0.25;

struct ScheduleSpec {
  double seconds = 20.0;
  int num_classes = 10;
  int num_clients = 10;
  std::vector<std::string> tokens;  ///< tenant tokens, at least one
};

/// The seeded part of the traffic: every POST /unlearn and GET /metrics with
/// its due time, sorted by due time. Each stream is a Poisson process at its
/// rate conditioned on its expected count (round(rate * seconds) arrivals,
/// uniformly placed), so runs offer the same load. The well-formed POSTs
/// name the same targets in the same order in every run, one client request
/// in every 1 / kClientShare (class 0, class 1, class 2, client 0, class 3,
/// ...); the seed sets the arrival times, tenants and where the malformed
/// POSTs fall. Polls are not part of the schedule: they follow
/// each 202 (see OpenLoop).
std::vector<Planned> make_schedule(const ScheduleSpec& spec, std::uint64_t seed);

/// The HTTP/1.1 request bytes for a planned request.
std::string render_request(const Planned& planned);

// ---------------------------------------------------------------------------
// Response parsing

struct HttpResponse {
  int status = 0;
  std::string body;
};

/// Incremental parser of one HTTP/1.1 response with a Content-Length body.
class ResponseParser {
 public:
  enum class State { kIncomplete, kComplete, kMalformed };

  /// Appends bytes and returns the state after them.
  State feed(const char* data, std::size_t n);
  /// The peer closed: an incomplete response becomes malformed (truncated).
  State finish();

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] const HttpResponse& response() const { return response_; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  State parse();
  State fail(const std::string& why);

  std::string buf_;
  State state_ = State::kIncomplete;
  HttpResponse response_;
  std::string error_;
};

/// True when `text` is one complete JSON value (RFC 8259 grammar).
bool json_valid(const std::string& text);

/// The value of a top-level string or integer field of a JSON object, as
/// text ("completed", "17"); nullopt when absent.
std::optional<std::string> json_field(const std::string& text, const std::string& key);

// ---------------------------------------------------------------------------
// The loop

struct Outcome {
  Planned planned;
  double sent_s = 0.0;  ///< when the generator started the request
  double done_s = 0.0;  ///< when it finished or failed
  bool ok = false;      ///< transport, status and JSON all as expected
  std::string error;    ///< why not ok
  HttpResponse response;
  std::int64_t bytes_out = 0;
  std::int64_t bytes_in = 0;

  [[nodiscard]] double latency_s() const { return done_s - planned.due_s; }
  [[nodiscard]] double lateness_s() const { return sent_s - planned.due_s; }
};

/// Per-request client timeout, from when the request is sent.
inline constexpr double kTimeoutS = 10.0;
/// Extra time after the schedule in which follow-up polls may still be
/// issued, so admitted requests can be seen to complete.
inline constexpr double kGraceS = 10.0;

struct LoopConfig {
  std::uint16_t port = 0;
  int max_in_flight = 4;
  /// Follow-ups due later than this plus kGraceS are dropped; requests
  /// already due run to completion.
  double seconds = 20.0;
};

class OpenLoop {
 public:
  /// `on_done` sees every finished request and may return follow-ups (e.g.
  /// the next poll) with absolute due times.
  using OnDone = std::function<std::vector<Planned>(const Outcome&)>;

  OpenLoop(LoopConfig config, std::vector<Planned> schedule, OnDone on_done);

  /// Runs until the schedule and every follow-up are done. Returns every
  /// outcome in completion order. Times are seconds since run() started.
  std::vector<Outcome> run();

 private:
  struct Conn;

  LoopConfig config_;
  std::vector<Planned> pending_;  ///< min-heap on due_s
  OnDone on_done_;
};

}  // namespace perfbench
