#include "baselines/method.h"

#include "util/timer.h"

namespace quickdrop::baselines {

nn::ModelState UnlearningMethod::run_rounds(TrainedFederation& fed, const nn::ModelState& start,
                                            const std::vector<data::Dataset>& client_data,
                                            int rounds, float lr, nn::UpdateDirection direction,
                                            StageReport* report, std::uint64_t rng_tag,
                                            float participation) {
  const Timer timer;
  const auto model = fed.factory();
  fl::SgdLocalUpdate update(config_.local_steps, config_.batch_size, lr, direction);
  fl::ResilientConfig fedcfg{
      .rounds = rounds,
      .participation = participation < 0.0f ? config_.participation : participation};
  fedcfg.client_model_factory = fed.factory;
  fl::CostMeter cost;
  Rng rng(0xBA5E0000ULL + rng_tag);
  nn::ModelState result =
      fl::run_resilient(*model, start, client_data, update, fedcfg, rng, cost);
  if (report) {
    report->seconds = timer.seconds();
    report->rounds = rounds;
    report->data_size = fl::total_samples(client_data);
    report->cost = cost;
  }
  return result;
}

nn::ModelState UnlearningMethod::relearn(TrainedFederation& fed, const nn::ModelState& state,
                                         const core::UnlearningRequest& request,
                                         StageReport* report) {
  const auto forget = original_forget(fed, request);
  return run_rounds(fed, state, forget, config_.relearn_rounds, config_.relearn_lr,
                    nn::UpdateDirection::kDescent, report, 0x9E);
}

}  // namespace quickdrop::baselines
