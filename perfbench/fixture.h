// The federation every workload runs on.
//
// Mirrors `quickdrop_cli train`'s defaults: cifar10-like data, 10 clients
// under a Dirichlet(0.1) label split, a width-16 depth-2 ConvNet and the
// CLI's QuickDrop hyperparameters. serve_http adds the deployment knobs
// `serve --listen` inherits from a checkpoint (int8 transport, a fault plan).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/quickdrop.h"
#include "data/synthetic.h"
#include "nn/convnet.h"
#include "spans.h"

namespace perfbench {

namespace qd = quickdrop;

/// Pool size for every workload: hardware threads - 2, between 1 and 2.
int bench_threads();

/// `quickdrop_cli train`'s default seed: it draws the client split, the
/// model initialisation and the coordinator's randomness. The federation is
/// fixed like a dataset; the run seed draws only the served traffic.
inline constexpr std::uint64_t kFederationSeed = 42;
/// `quickdrop_cli`'s default --fault-seed.
inline constexpr std::uint64_t kFaultSeed = 7;
/// Rounds of every training.
inline constexpr int kTrainRounds = 6;

/// The deployment knobs the workloads set differently.
struct FederationSpec {
  bool int8_transport = false;
  /// Crash and corrupt-upload rates of the fault plan (0 = no faults).
  double fault_crash = 0.0;
  double fault_corrupt = 0.0;
};

/// Data and configuration of one federation; cheap to turn into fresh
/// coordinators with identical bits.
struct Federation {
  FederationSpec spec;
  qd::data::TrainTest data;
  std::vector<qd::data::Dataset> clients;
  qd::nn::ConvNetConfig net;
  qd::core::QuickDropConfig config;
};

/// Generates the data and partition (the `data.generate_s` span when
/// `recorder` is tracing).
Federation build_federation(const FederationSpec& spec, SpanRecorder* recorder);

/// A fresh coordinator over `fed`. Every call returns a coordinator whose
/// runs produce the same bits. With a tracing `recorder`, every module the
/// factory hands out records `nn.forward` spans (the wrapper changes no
/// bits; the benchmark checks this by CRC).
std::unique_ptr<qd::core::QuickDrop> make_quickdrop(const Federation& fed,
                                                    SpanRecorder* recorder);

/// A plain model for evaluation (not from the coordinator's factory RNG).
std::unique_ptr<qd::nn::Module> make_eval_model(const Federation& fed);

/// CRC-64 of a state's float payload.
std::uint64_t state_crc(const qd::nn::ModelState& state);

}  // namespace perfbench
