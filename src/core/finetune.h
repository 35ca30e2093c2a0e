// Optional synthetic-data fine-tuning (paper §3.3.2).
//
// After FL training, each client can refine its synthetic dataset for
// generalization using the dataset-condensation algorithm of Zhao et al.:
// gradient matching repeated across fresh random model initializations
// (outer steps F), with an inner loop that alternates matching and training
// the probe model on the synthetic data.
#pragma once

#include "core/distillation.h"
#include "fl/client_update.h"

namespace quickdrop::core {

struct FinetuneConfig {
  int outer_steps = 0;     ///< F: number of fresh model initializations
  int inner_steps = 5;     ///< matching/training alternations per init (paper: 50)
  int batch_size = 32;     ///< real mini-batch per class gradient
  float model_lr = 0.05f;  ///< probe-model training rate on synthetic data
  DistillConfig distill;   ///< pixel-update hyperparameters
};

/// Fine-tunes one client's synthetic store against its real data. Real-batch
/// gradient computations are counted as training cost and synthetic-side
/// computations as distillation cost in `cost` (callers use a dedicated
/// meter to report Figure 5's gradient counts).
void finetune_store(const fl::ModelFactory& factory, SyntheticStore& store,
                    const data::Dataset& client_data, const FinetuneConfig& config, Rng& rng,
                    fl::CostMeter& cost);

}  // namespace quickdrop::core
