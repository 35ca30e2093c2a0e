#include <filesystem>

#include "bench.h"
#include "core/checkpoint.h"
#include "metrics/evaluate.h"
#include "store/store.h"

namespace perfbench {

namespace {

/// Test accuracy every trained model must reach; chance is 0.1.
constexpr double kMinTrainAccuracy = 0.2;

}  // namespace

TrainResult train_phase(const TrainOptions& options, SpanRecorder* recorder, Report& report) {
  TrainResult result;
  const FederationSpec& spec = options.federation;
  for (int rep = 0; rep < options.repetitions; ++rep) {
    auto fed = std::make_unique<Federation>(build_federation(spec, recorder));
    std::shared_ptr<qd::core::QuickDrop> quickdrop = make_quickdrop(*fed, recorder);

    // `train --checkpoint-every 1`: every completed round but the last is a
    // committed partial checkpoint; the final state is committed after.
    std::optional<qd::store::Store> store;
    auto io = std::make_shared<IoCounters>();
    const std::string path =
        options.store_dir + "/train-" + std::to_string(rep) + ".qdst";
    if (options.checkpoint_every_round) {
      std::filesystem::remove(path);
      store.emplace(path, counting_io_factory(io, recorder));
    }
    const auto commit = [&](const qd::nn::ModelState& state, const qd::core::RoundCursor* cursor,
                            int round) {
      SpanRecorder::Scope span(recorder, "store.commit");
      auto cp = qd::core::make_checkpoint(state, quickdrop->stores());
      cp.metadata = {{"benchmark", "perfbench"}};
      if (cursor != nullptr) cp.cursor = *cursor;
      qd::core::save_checkpoint(cp, *store, static_cast<std::uint64_t>(round));
      ++result.commits;
    };

    // fl.round spans cover a round's compute; round_total_s adds the
    // round's checkpoint commit, as a user of `train` waits for both.
    std::int64_t round_start = now_ns();
    const auto on_round = [&](int, const qd::nn::ModelState&) {
      const std::int64_t t = now_ns();
      result.round_s.push_back(static_cast<double>(t - round_start) * 1e-9);
      recorder->add(Span{.name = "fl.round",
                         .start_ns = round_start,
                         .end_ns = t,
                         .thread = SpanRecorder::this_thread()});
    };
    const auto on_cursor = [&](int round, const qd::nn::ModelState& state, const qd::Rng& rng) {
      const int done = round + 1;
      if (store && done < kTrainRounds) {
        const qd::core::RoundCursor cursor{"train", done, rng.serialize()};
        commit(state, &cursor, done);
      }
      const std::int64_t t = now_ns();
      result.round_total_s.push_back(static_cast<double>(t - round_start) * 1e-9);
      round_start = t;
    };

    qd::nn::ModelState state;
    {
      SpanRecorder::Scope span(recorder, "core.train");
      const std::int64_t t0 = now_ns();
      round_start = t0;
      state = quickdrop->train(on_round, {}, on_cursor);
      result.train_s += static_cast<double>(now_ns() - t0) * 1e-9;
    }
    result.rounds += kTrainRounds;
    result.distill_s += quickdrop->distill_seconds();
    result.cost += quickdrop->training_stats().cost;
    result.crc.push_back(state_crc(state));
    report.attempt();
    if (result.crc.back() != result.crc.front()) {
      report.fail("train repetition " + std::to_string(rep) + ": other bits than repetition 0");
    }

    if (store) {
      commit(state, nullptr, kTrainRounds);
      report.attempt();
      const std::uint64_t committed = store->committed_seq();
      store.reset();
      result.file_bytes += static_cast<std::int64_t>(std::filesystem::file_size(path));
      // The store must reopen to the state training produced.
      const auto reopened = qd::core::load_checkpoint(path);
      if (state_crc(reopened.global) != state_crc(state)) {
        report.fail("train repetition " + std::to_string(rep) +
                    ": store holds other bits than trained");
      }
      report.check(committed == static_cast<std::uint64_t>(kTrainRounds),
                   "one commit per round");
      std::filesystem::remove(path);
    }
    result.io.bytes_written += io->bytes_written;
    result.io.syncs += io->syncs;

    {
      SpanRecorder::Scope span(recorder, "metrics.eval");
      auto model = make_eval_model(*fed);
      qd::nn::load_state(*model, state);
      result.accuracy.push_back(qd::metrics::accuracy(*model, fed->data.test));
    }
    report.attempt();
    if (result.accuracy.back() < kMinTrainAccuracy) {
      report.fail("train repetition " + std::to_string(rep) + ": test accuracy " +
                  std::to_string(result.accuracy.back()) + " is near chance");
    }
    result.fed = std::move(fed);
    result.quickdrop = std::move(quickdrop);
    result.state = std::move(state);
  }
  return result;
}

}  // namespace perfbench
