#include "baselines/simple_methods.h"

#include <stdexcept>

#include "nn/state_accumulator.h"
#include "util/timer.h"

namespace quickdrop::baselines {

UnlearnOutcome RetrainOracle::unlearn(TrainedFederation& fed,
                                      const core::UnlearningRequest& request) {
  const auto retain = original_retain(fed, request);
  UnlearnOutcome out;
  // Full retraining from the original random initialization, excluding D_f.
  out.state = run_rounds(fed, fed.initial, retain, config_.retrain_rounds, config_.train_lr,
                         nn::UpdateDirection::kDescent, &out.unlearn, 0x01);
  out.after_unlearn = out.state;
  return out;
}

UnlearnOutcome SgaOriginal::unlearn(TrainedFederation& fed,
                                    const core::UnlearningRequest& request) {
  const auto forget = original_forget(fed, request);
  const auto retain = original_retain(fed, request);
  UnlearnOutcome out;
  out.after_unlearn =
      run_rounds(fed, fed.global, forget, config_.sga_unlearn_rounds, config_.unlearn_lr,
                 nn::UpdateDirection::kAscent, &out.unlearn, 0x02, /*participation=*/1.0f);
  out.state = run_rounds(fed, out.after_unlearn, retain, config_.sga_recovery_rounds,
                         config_.recover_lr, nn::UpdateDirection::kDescent, &out.recovery, 0x03);
  return out;
}

UnlearnOutcome S2U::unlearn(TrainedFederation& fed, const core::UnlearningRequest& request) {
  if (request.kind != core::UnlearningRequest::Kind::kClient) {
    throw std::invalid_argument("S2U supports client-level unlearning only");
  }
  const auto& clients = fed.client_train();
  const auto target = static_cast<std::size_t>(request.target);
  if (target >= clients.size()) throw std::out_of_range("S2U: bad target client");

  UnlearnOutcome out;
  const Timer timer;
  const auto model = fed.factory();
  fl::SgdLocalUpdate update(config_.local_steps, config_.batch_size, config_.train_lr,
                            nn::UpdateDirection::kDescent);
  Rng rng(0xBA5E0004ULL);
  nn::ModelState global = fed.global;
  fl::CostMeter cost;

  // The reweighting depends only on dataset sizes, so the normalized weights
  // are known before any client trains — which lets each client's state fold
  // straight into a streaming accumulator and be discarded instead of
  // holding the whole cohort.
  std::int64_t cohort_samples = 0;
  for (const auto& d : clients) cohort_samples += d.size();
  std::vector<float> weights;
  float weight_sum = 0.0f;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    if (clients[i].empty()) continue;
    // Down-scale the forgetting client; up-scale the rest.
    const float base = static_cast<float>(clients[i].size()) /
                       static_cast<float>(cohort_samples);
    const float w = base * (i == target ? config_.s2u_down : config_.s2u_up);
    weights.push_back(w);
    weight_sum += w;
  }
  if (weight_sum <= 0.0f) throw std::logic_error("S2U: degenerate aggregation weights");
  for (auto& w : weights) w /= weight_sum;

  nn::StateAccumulator acc(global.layout(), /*lanes=*/1);
  nn::ModelState local{global.layout()};
  for (int round = 0; round < config_.s2u_rounds; ++round) {
    std::size_t next_weight = 0;
    for (std::size_t i = 0; i < clients.size(); ++i) {
      if (clients[i].empty()) continue;
      nn::load_state(*model, global);
      Rng client_rng = rng.split(static_cast<std::uint64_t>(round) * 1009 + i);
      update.run(*model, clients[i], round, static_cast<int>(i), client_rng, cost);
      nn::snapshot_into(*model, local);
      acc.fold(local, static_cast<double>(weights[next_weight++]));
    }
    global = acc.finalize();
    acc.reset();
    ++cost.rounds;
  }

  out.state = global;
  out.after_unlearn = global;  // unlearning and recovery are integrated
  out.unlearn.seconds = timer.seconds();
  out.unlearn.rounds = config_.s2u_rounds;
  out.unlearn.data_size = fl::total_samples(clients);
  out.unlearn.cost = cost;
  return out;
}

}  // namespace quickdrop::baselines
