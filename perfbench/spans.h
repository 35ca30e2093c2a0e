// In-memory span recorder for the traced run.
//
// A span is one call across a layer boundary: name, start, end, the span
// that caused it, the thread it ran on and the request it served. The
// benchmark opens spans around the calls it makes into each layer's public
// API (it never edits the program), keeps them in memory and writes them out
// once when the run ends. Per-layer busy and self time are computed from the
// spans afterwards, so recording costs one clock read and one append.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
std::int64_t now_ns();

struct Span {
  const char* name = "";  ///< static string: the layer boundary crossed
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;   ///< index of the causing span, -1 for a root
  int thread = 0;             ///< small per-process thread number
  std::int64_t request = -1;  ///< request id, -1 when the span serves none
  std::int64_t rows = 0;      ///< work count the caller attached (rows, bytes)
};

/// Busy time of one span name: the sum of its durations, and self time, the
/// part of those durations that none of its child spans covers.
struct LayerTime {
  std::int64_t calls = 0;
  double busy_s = 0.0;
  double self_s = 0.0;
  std::int64_t rows = 0;
  std::vector<double> durations_s;  ///< per call, in recording order
};

class SpanRecorder {
 public:
  /// A disabled recorder records nothing and every Scope on it is a no-op.
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// RAII span. The parent is the innermost open span of this recorder on
  /// the same thread; on a thread with none open (a pool worker) it is the
  /// innermost span open on the thread that called set_root_thread().
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name, std::int64_t request = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void add_rows(std::int64_t rows) { rows_ += rows; }
    void set_request(std::int64_t request) { request_ = request; }

   private:
    SpanRecorder* recorder_;
    const char* name_;
    std::int64_t request_;
    std::int64_t rows_ = 0;
    std::int64_t start_ns_ = 0;
    std::int64_t id_ = -1;
  };

  /// Marks the calling thread as the one whose open spans parent work that
  /// pool workers run on its behalf.
  void set_root_thread();

  /// Records a finished span (e.g. one reconstructed from callbacks) and
  /// returns its index; -1 on a disabled recorder.
  std::int64_t add(const Span& span);

  /// Sets the request id of every span recorded on `thread` that lies inside
  /// [start_ns, end_ns] and has none yet.
  void tag_request(int thread, std::int64_t start_ns, std::int64_t end_ns, std::int64_t request);

  /// A copy of every span recorded so far.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Writes the spans as JSON lines (one object per span).
  void write_jsonl(const std::string& path) const;

  /// The calling thread's small thread number.
  static int this_thread();

 private:
  std::int64_t open(const char* name, std::int64_t request, std::int64_t start_ns);
  void close(std::int64_t id, std::int64_t end_ns, std::int64_t rows, std::int64_t request);

  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;                   // guarded by mu_
  std::vector<std::int64_t> root_stack_;      // guarded by mu_: open spans of the root thread
  int root_thread_ = -1;                      // guarded by mu_
};

/// Per-name busy and self time. Self time of a span is its duration minus
/// the measure of the union of its children's intervals clipped to it, so
/// overlapping children on several threads are not subtracted twice.
std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans);

}  // namespace perfbench
