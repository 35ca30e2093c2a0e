// The benchmark's phases and the report every run prints.
//
// Every workload reports every end-to-end metric, so every workload runs
// all three paper paths: train, in-process unlearning, and the HTTP service.
// A workload fixes the deployment and spends most of its run on its own
// path (see NOTES.md); with --trace 1 it runs only its own path, once
// untraced and once traced, and reports the per-layer split.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/quickdrop.h"
#include "fixture.h"
#include "loadgen.h"
#include "spans.h"
#include "store/io.h"

namespace perfbench {

/// Forget-set accuracy a served request must fall below, or it fails.
inline constexpr double kForgetAccuracyLimit = 0.2;
/// Latency limit of http_goodput_per_s.
inline constexpr double kHttpLatencyLimitMs = 200.0;

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string work_dir;    ///< scratch files (stores)
  std::string trace_path;  ///< where the spans are written
};

/// Correctness accounting plus the metrics a run prints.
class Report {
 public:
  void attempt(std::int64_t n = 1) { attempted_ += n; }
  /// Records a failed operation; the run is then not correct.
  void fail(const std::string& what);
  /// A check that is not an operation (e.g. traced bits equal untraced).
  void check(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
  void note(const std::string& line) { notes_.push_back(line); }

  /// Notes and a metric table, then the final JSON line.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  bool checks_ok_ = true;
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

/// Store I/O counters filled by the store::IoFactory decorator.
struct IoCounters {
  std::int64_t bytes_written = 0;
  std::int64_t syncs = 0;
};

/// Wraps file_io_factory(): counts written bytes and syncs into `counters`
/// and records a `store.sync` span per sync on a tracing recorder.
qd::store::IoFactory counting_io_factory(std::shared_ptr<IoCounters> counters,
                                         SpanRecorder* recorder);

/// Peak resident set of the process in MiB.
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Phases

struct TrainResult {
  double train_s = 0.0;  ///< wall-clock inside QuickDrop::train, all repetitions
  int rounds = 0;
  std::vector<double> accuracy;    ///< test accuracy per repetition
  std::vector<std::uint64_t> crc;  ///< final state CRC per repetition
  double distill_s = 0.0;          ///< QuickDrop::distill_seconds, summed
  qd::fl::CostMeter cost;          ///< training cost, summed
  std::int64_t commits = 0;
  std::int64_t file_bytes = 0;
  IoCounters io;
  std::vector<double> round_s;        ///< per-round compute wall-clock
  std::vector<double> round_total_s;  ///< per round, compute plus checkpoint commit
  /// The last repetition's federation, coordinator and trained state.
  std::unique_ptr<Federation> fed;
  std::shared_ptr<qd::core::QuickDrop> quickdrop;
  qd::nn::ModelState state;
};

struct TrainOptions {
  int repetitions = 1;
  FederationSpec federation;
  bool checkpoint_every_round = false;
  std::string store_dir;
};

/// QuickDrop::train on a fresh federation and coordinator, `repetitions`
/// times; per-round store commits as `train --checkpoint-every 1` makes them
/// when asked. Checks that every repetition produces the same bits, that
/// each store reopens to the trained state and that the model beats chance.
TrainResult train_phase(const TrainOptions& options, SpanRecorder* recorder, Report& report);

/// The request sequence: the first `count` of class 0, client 0, class 1,
/// client 1, ... (every class and client once at most), in a seeded order.
std::vector<qd::core::UnlearningRequest> request_sequence(const Federation& fed,
                                                          std::uint64_t seed, std::size_t count);

struct UnlearnResult {
  std::vector<double> request_s;   ///< wall-clock per served request
  std::vector<double> fset;        ///< per distinct request
  std::vector<double> rset;
  std::vector<std::uint64_t> crc;  ///< per distinct request
  double sga_s = 0.0;
  double recover_s = 0.0;
  int sga_rounds = 0;
  qd::fl::CostMeter cost;
  std::vector<double> round_s;
};

/// Serves `passes` passes over `requests`, each request independently from
/// `trained` (reset_forgotten between requests). F-Set and R-Set are
/// evaluated outside the timed region on the first pass; later passes must
/// reproduce the first pass's bits. A request whose F-Set accuracy is not
/// below kForgetAccuracyLimit fails.
UnlearnResult unlearn_phase(const Federation& fed, qd::core::QuickDrop& quickdrop,
                            const qd::nn::ModelState& trained,
                            const std::vector<qd::core::UnlearningRequest>& requests, int passes,
                            SpanRecorder* recorder, Report& report);

struct HttpOptions {
  double seconds = 10.0;
  std::uint64_t seed = 1;
  /// Persist every unlearning round through serve::durable_cursor_callback.
  bool durable_cursors = false;
  std::string store_dir;
};

struct HttpResult {
  std::vector<double> latency_ms;  ///< every request, from its due time
  std::vector<double> lateness_ms;
  std::vector<double> forget_s;    ///< 202 -> first poll that sees "completed"
  std::int64_t good = 0;           ///< seeded requests ok and within kHttpLatencyLimitMs
  std::int64_t requests = 0;
  std::int64_t failed = 0;
  double window_s = 0.0;
  double drain_busy_s = 0.0;       ///< idle-hook time that ran cycles
  int cycles = 0;
  /// Per-layer values measured at the phase's own boundaries (net, serve,
  /// store, fl), keyed by per-layer metric name.
  std::map<std::string, double> layers;
};

/// Serves a seeded open-loop HTTP schedule against net::serve_http +
/// net::ApiService on loopback TCP, with `serve --listen`'s defaults and two
/// bearer tenants. A request fails on a transport error, timeout, 5xx,
/// unparsable JSON or an unexpected status; an admitted request fails if no
/// poll has seen it completed by the end of the run.
HttpResult http_phase(const Federation& fed, std::shared_ptr<qd::core::QuickDrop> quickdrop,
                      const qd::nn::ModelState& trained, const HttpOptions& options,
                      SpanRecorder* recorder, Report& report);

}  // namespace perfbench
