#include <sys/resource.h>

#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "util/crc64.h"

namespace perfbench {

void Report::fail(const std::string& what) {
  ++failed_;
  notes_.push_back("FAILED: " + what);
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  checks_ok_ = false;
  notes_.push_back("CHECK FAILED: " + what);
}

void Report::metric(const std::string& name, double value, const std::string& unit,
                    const std::string& note) {
  metrics_.push_back(Metric{name, value, unit, note});
}

void Report::print() const {
  for (const auto& line : notes_) std::printf("# %s\n", line.c_str());
  for (const auto& m : metrics_) {
    std::printf("%-28s %16.6f %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  const bool correct = checks_ok_ && failed_ == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted_),
              static_cast<long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

namespace {

class CountingIo final : public qd::store::Io {
 public:
  CountingIo(std::unique_ptr<qd::store::Io> inner, std::shared_ptr<IoCounters> counters,
             SpanRecorder* recorder)
      : inner_(std::move(inner)), counters_(std::move(counters)), recorder_(recorder) {}

  std::size_t read_at(std::uint64_t offset, std::span<std::uint8_t> out) override {
    return inner_->read_at(offset, out);
  }
  void write_at(std::uint64_t offset, std::span<const std::uint8_t> bytes) override {
    counters_->bytes_written += static_cast<std::int64_t>(bytes.size());
    inner_->write_at(offset, bytes);
  }
  void sync() override {
    SpanRecorder::Scope span(recorder_, "store.sync");
    ++counters_->syncs;
    inner_->sync();
  }
  void truncate(std::uint64_t size) override { inner_->truncate(size); }
  std::uint64_t size() override { return inner_->size(); }

 private:
  std::unique_ptr<qd::store::Io> inner_;
  std::shared_ptr<IoCounters> counters_;
  SpanRecorder* recorder_;
};

}  // namespace

qd::store::IoFactory counting_io_factory(std::shared_ptr<IoCounters> counters,
                                         SpanRecorder* recorder) {
  auto inner = qd::store::file_io_factory();
  return [inner, counters, recorder](const std::string& path) -> std::unique_ptr<qd::store::Io> {
    return std::make_unique<CountingIo>(inner(path), counters, recorder);
  };
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
