#include <algorithm>

#include "bench.h"
#include "data/dataset.h"
#include "metrics/evaluate.h"

namespace perfbench {

std::vector<qd::core::UnlearningRequest> request_sequence(const Federation& fed,
                                                          std::uint64_t seed, std::size_t count) {
  std::vector<qd::core::UnlearningRequest> requests;
  const auto classes = static_cast<std::size_t>(fed.data.train.num_classes());
  for (std::size_t i = 0; i < std::max(classes, fed.clients.size()); ++i) {
    if (i < classes) requests.push_back(qd::core::UnlearningRequest::for_class(static_cast<int>(i)));
    if (i < fed.clients.size() && !fed.clients[i].empty()) {
      requests.push_back(qd::core::UnlearningRequest::for_client(static_cast<int>(i)));
    }
  }
  requests.resize(std::min(count, requests.size()));
  qd::Rng rng = qd::Rng(seed).split(kRequestOrder);
  std::vector<qd::core::UnlearningRequest> shuffled;
  for (const int i : rng.permutation(static_cast<int>(requests.size()))) {
    shuffled.push_back(requests[static_cast<std::size_t>(i)]);
  }
  return shuffled;
}

namespace {

/// F-Set and R-Set accuracy of `state` for one request: for a class, the
/// test samples of that class and of every other class; for a client, its
/// own training data and the other clients' training data.
std::pair<double, double> forget_retain_accuracy(const Federation& fed,
                                                 const qd::core::UnlearningRequest& request,
                                                 const qd::nn::ModelState& state) {
  auto model = make_eval_model(fed);
  qd::nn::load_state(*model, state);
  if (request.kind == qd::core::UnlearningRequest::Kind::kClass) {
    return {qd::metrics::accuracy_on_classes(*model, fed.data.test, {request.target}),
            qd::metrics::accuracy_excluding_classes(*model, fed.data.test, {request.target})};
  }
  const auto& own = fed.clients.at(static_cast<std::size_t>(request.target));
  std::optional<qd::data::Dataset> others;
  for (std::size_t i = 0; i < fed.clients.size(); ++i) {
    if (static_cast<int>(i) == request.target || fed.clients[i].empty()) continue;
    others = others ? qd::data::Dataset::concat(*others, fed.clients[i]) : fed.clients[i];
  }
  return {qd::metrics::accuracy(*model, own),
          others ? qd::metrics::accuracy(*model, *others) : 0.0};
}

}  // namespace

UnlearnResult unlearn_phase(const Federation& fed, qd::core::QuickDrop& quickdrop,
                            const qd::nn::ModelState& trained,
                            const std::vector<qd::core::UnlearningRequest>& requests, int passes,
                            SpanRecorder* recorder, Report& report) {
  UnlearnResult result;
  for (int pass = 0; pass < passes; ++pass) {
    for (std::size_t k = 0; k < requests.size(); ++k) {
      const auto& request = requests[k];
      const auto request_id = static_cast<std::int64_t>(k);
      qd::core::PhaseStats sga;
      qd::core::PhaseStats recover;
      std::int64_t round_start = now_ns();
      const auto on_round = [&](int, const qd::nn::ModelState&) {
        const std::int64_t t = now_ns();
        result.round_s.push_back(static_cast<double>(t - round_start) * 1e-9);
        recorder->add(Span{.name = "fl.round",
                           .start_ns = round_start,
                           .end_ns = t,
                           .thread = SpanRecorder::this_thread(),
                           .request = request_id});
        round_start = t;
      };
      report.attempt();
      qd::nn::ModelState out;
      {
        SpanRecorder::Scope span(recorder, "core.unlearn", request_id);
        const std::int64_t t0 = now_ns();
        round_start = t0;
        out = quickdrop.unlearn(trained, request, &sga, &recover, on_round);
        result.request_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      }
      quickdrop.reset_forgotten();
      result.sga_s += sga.seconds;
      result.recover_s += recover.seconds;
      result.sga_rounds += sga.rounds;
      result.cost += sga.cost;
      result.cost += recover.cost;

      const std::uint64_t crc = state_crc(out);
      if (pass > 0) {
        if (crc != result.crc[k]) {
          report.fail(request.to_string() + ": pass " + std::to_string(pass) +
                      " produced other bits than pass 0");
        }
        continue;
      }
      result.crc.push_back(crc);
      {
        SpanRecorder::Scope span(recorder, "metrics.eval", request_id);
        const auto [fset, rset] = forget_retain_accuracy(fed, request, out);
        result.fset.push_back(fset);
        result.rset.push_back(rset);
      }
      report.note(request.to_string() + ": F-Set " + std::to_string(result.fset.back()) +
                  ", R-Set " + std::to_string(result.rset.back()));
      if (result.fset.back() >= kForgetAccuracyLimit) {
        report.fail(request.to_string() + ": F-Set accuracy " +
                    std::to_string(result.fset.back()) + " did not fall below " +
                    std::to_string(kForgetAccuracyLimit));
      }
    }
  }
  return result;
}

}  // namespace perfbench
