#include "serve/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace quickdrop::serve {

std::string json_double(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

namespace {

/// Nearest-rank percentile: ceil(p/100 * N), clamped to [1, N]. 0 when empty.
double nearest_rank(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double clamped = std::min(100.0, std::max(0.0, p));
  auto rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(values.size())));
  if (rank < 1) rank = 1;
  return values[rank - 1];
}

}  // namespace

double ServiceReport::latency_percentile(double p) const {
  std::vector<double> latencies;
  latencies.reserve(completed.size());
  for (const auto& m : completed) latencies.push_back(m.latency());
  return nearest_rank(std::move(latencies), p);
}

double ServiceReport::queue_wait_percentile(double p) const {
  std::vector<double> waits;
  waits.reserve(completed.size());
  for (const auto& m : completed) waits.push_back(m.queue_wait());
  return nearest_rank(std::move(waits), p);
}

double ServiceReport::requests_per_hour() const {
  if (sim_clock_seconds <= 0.0) return 0.0;
  return static_cast<double>(completed.size()) * 3600.0 / sim_clock_seconds;
}

std::string ServiceReport::to_json() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"policy\": \"" << policy << "\",\n";
  // The transport label is the only line that differs between an in-process
  // run and the same trace served over HTTP (tests/net/handler_replay_test).
  out << "  \"transport\": \"" << transport << "\",\n";
  out << "  \"queue_wait_p50_seconds\": " << json_double(queue_wait_percentile(50.0)) << ",\n";
  out << "  \"queue_wait_p95_seconds\": " << json_double(queue_wait_percentile(95.0)) << ",\n";
  out << "  \"completed\": " << completed.size() << ",\n";
  out << "  \"rejected\": " << rejected.size() << ",\n";
  out << "  \"cycles\": " << cycles << ",\n";
  out << "  \"total_fl_rounds\": " << total_fl_rounds << ",\n";
  out << "  \"total_bytes\": " << total_bytes << ",\n";
  out << "  \"sim_clock_seconds\": " << json_double(sim_clock_seconds) << ",\n";
  out << "  \"latency_p50_seconds\": " << json_double(latency_percentile(50.0)) << ",\n";
  out << "  \"latency_p95_seconds\": " << json_double(latency_percentile(95.0)) << ",\n";
  out << "  \"requests_per_hour\": " << json_double(requests_per_hour()) << ",\n";
  out << "  \"requests\": [\n";
  for (std::size_t i = 0; i < completed.size(); ++i) {
    const auto& m = completed[i];
    out << "    {\"id\": " << m.id << ", \"kind\": \"" << kind_name(m.kind)
        << "\", \"target\": " << m.target
        << ", \"arrival\": " << json_double(m.arrival_seconds)
        << ", \"queue_wait\": " << json_double(m.queue_wait())
        << ", \"latency\": " << json_double(m.latency())
        << ", \"unlearn_rounds\": " << m.unlearn_rounds
        << ", \"recovery_rounds\": " << m.recovery_rounds << ", \"bytes_up\": " << m.bytes_up
        << ", \"bytes_down\": " << m.bytes_down << ", \"batch_size\": " << m.batch_size
        << ", \"cycle\": " << m.cycle << ", \"fset_accuracy\": " << json_double(m.fset_accuracy)
        << ", \"rset_accuracy\": " << json_double(m.rset_accuracy)
        << ", \"sga_forget_accuracy\": " << json_double(m.sga_forget_accuracy)
        << ", \"sga_target_reached\": "
        << (m.sga_forget_accuracy < 0.0 ? "null" : m.sga_target_reached ? "true" : "false") << "}"
        << (i + 1 < completed.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"rejections\": [\n";
  for (std::size_t i = 0; i < rejected.size(); ++i) {
    const auto& r = rejected[i];
    out << "    {\"kind\": \"" << kind_name(r.request.kind)
        << "\", \"target\": " << r.request.target << ", \"reason\": \""
        << reject_reason_name(r.reason) << "\"}" << (i + 1 < rejected.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return out.str();
}

}  // namespace quickdrop::serve
