// Reference batch FedAvg merge: every client state alive at once, each output
// entry accumulated in double precision over the clients in index order.
// The streaming nn::StateAccumulator replaced it in the round engine; a
// single-lane accumulator fed in index order must reproduce its bits exactly
// (tests/nn/state_accumulator_test.cpp), and the SIMD-parity suite checks it
// against every dispatch path.
#pragma once

#include <span>

#include "nn/state.h"

namespace quickdrop::nn::oracle {

/// Sum_i weights[i] * states[i]; weights are used as given (FedAvg passes
/// |D_i|/|D|). Throws StateError on a weight-count or layout mismatch.
ModelState weighted_average(std::span<const ModelState> states, std::span<const float> weights);

}  // namespace quickdrop::nn::oracle
