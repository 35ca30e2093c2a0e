#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {

/// Open spans of every recorder on this thread, innermost last.
thread_local std::vector<std::pair<const SpanRecorder*, std::int64_t>> tl_open;

std::atomic<int> next_thread{0};

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::this_thread() {
  thread_local const int id = next_thread.fetch_add(1);
  return id;
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* name, std::int64_t request)
    : recorder_(recorder != nullptr && recorder->enabled() ? recorder : nullptr),
      name_(name),
      request_(request) {
  if (recorder_ == nullptr) return;
  start_ns_ = now_ns();
  id_ = recorder_->open(name_, request_, start_ns_);
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  recorder_->close(id_, now_ns(), rows_, request_);
}

void SpanRecorder::set_root_thread() {
  const std::lock_guard<std::mutex> lock(mu_);
  root_thread_ = this_thread();
  root_stack_.clear();
}

std::int64_t SpanRecorder::open(const char* name, std::int64_t request, std::int64_t start_ns) {
  const int thread = this_thread();
  std::int64_t parent_id = -1;
  for (auto it = tl_open.rbegin(); it != tl_open.rend(); ++it) {
    if (it->first == this) {
      parent_id = it->second;
      break;
    }
  }
  const std::lock_guard<std::mutex> lock(mu_);
  if (parent_id < 0 && thread != root_thread_ && !root_stack_.empty()) {
    parent_id = root_stack_.back();
  }
  const auto id = static_cast<std::int64_t>(spans_.size());
  spans_.push_back(Span{.name = name,
                        .start_ns = start_ns,
                        .end_ns = start_ns,
                        .parent = parent_id,
                        .thread = thread,
                        .request = request});
  if (thread == root_thread_) root_stack_.push_back(id);
  tl_open.emplace_back(this, id);
  return id;
}

void SpanRecorder::close(std::int64_t id, std::int64_t end_ns, std::int64_t rows,
                         std::int64_t request) {
  for (auto it = tl_open.rbegin(); it != tl_open.rend(); ++it) {
    if (it->first == this && it->second == id) {
      tl_open.erase(std::next(it).base());
      break;
    }
  }
  const std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_.at(static_cast<std::size_t>(id));
  span.end_ns = end_ns;
  span.rows = rows;
  span.request = request;
  if (span.thread == root_thread_ && !root_stack_.empty() && root_stack_.back() == id) {
    root_stack_.pop_back();
  }
}

std::int64_t SpanRecorder::add(const Span& span) {
  if (span.end_ns < span.start_ns) throw std::invalid_argument("span ends before it starts");
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanRecorder::tag_request(int thread, std::int64_t start_ns, std::int64_t end_ns,
                               std::int64_t request) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (Span& span : spans_) {
    if (span.thread == thread && span.request < 0 && span.start_ns >= start_ns &&
        span.end_ns <= end_ns) {
      span.request = request;
    }
  }
}

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  const auto all = spans();
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  for (const Span& s : all) {
    out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"thread\": " << s.thread << ", \"request\": " << s.request
        << ", \"rows\": " << s.rows << "}\n";
  }
  if (!out.flush()) throw std::runtime_error("short write to trace file " + path);
}

std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::map<std::string, LayerTime> out;
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    cover.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t a = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t b = std::min(spans[c].end_ns, s.end_ns);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = -1;
    for (const auto& [a, b] : cover) {
      if (run_end < a) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = a;
        run_end = b;
      } else {
        run_end = std::max(run_end, b);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    const double duration = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    LayerTime& layer = out[s.name];
    ++layer.calls;
    layer.busy_s += duration;
    layer.self_s += duration - static_cast<double>(covered) * 1e-9;
    layer.rows += s.rows;
    layer.durations_s.push_back(duration);
  }
  return out;
}

}  // namespace perfbench
