// Serve-path replay with quantized client-update transport: the full service
// run must stay bitwise deterministic across thread counts when every client
// update crosses the wire as an int8/bf16 frame — with and without an active
// fault plan — and mid-request checkpoint resume must land on identical bits.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/checkpoint.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/quantize.h"
#include "nn/convnet.h"
#include "serve/service.h"
#include "util/thread_pool.h"

namespace quickdrop::serve {
namespace {

struct ThreadGuard {
  int saved = num_threads();
  ~ThreadGuard() { set_num_threads(saved); }
};

data::TrainTest make_mini_data() {
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.channels = 1;
  spec.image_size = 8;
  spec.train_per_class = 32;
  spec.test_per_class = 8;
  spec.noise = 0.35f;
  spec.seed = 33;
  return data::make_synthetic(spec);
}

struct MiniFederation {
  data::TrainTest tt;
  std::vector<data::Dataset> clients;
  fl::ModelFactory factory;

  MiniFederation() : tt(make_mini_data()) {
    Rng prng(7);
    clients = data::materialize(tt.train, data::dirichlet_partition(tt.train, 4, 0.5f, prng));
    nn::ConvNetConfig net;
    net.in_channels = 1;
    net.image_size = 8;
    net.num_classes = 4;
    net.width = 12;
    net.depth = 1;
    auto shared_rng = std::make_shared<Rng>(19);
    factory = [shared_rng, net] { return nn::make_convnet(net, *shared_rng); };
  }

  static core::QuickDropConfig config(fl::Codec codec) {
    core::QuickDropConfig cfg;
    cfg.fl_rounds = 4;
    cfg.local_steps = 3;
    cfg.batch_size = 16;
    cfg.train_lr = 0.1f;
    cfg.scale = 10;
    cfg.unlearn_rounds = 2;
    cfg.recovery_rounds = 2;
    cfg.unlearn_local_steps = 4;
    cfg.unlearn_batch_size = 16;
    cfg.unlearn_lr = 0.05f;
    cfg.recover_lr = 0.05f;
    cfg.transport.codec = codec;
    return cfg;
  }
};

void expect_states_bitwise_equal(const nn::ModelState& a, const nn::ModelState& b,
                                 const char* what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  for (std::int64_t j = 0; j < a.numel(); ++j) {
    ASSERT_EQ(a.at(j), b.at(j)) << what << ": flat entry " << j;
  }
}

ServiceRequest class_request(int target, double arrival) {
  ServiceRequest request;
  request.kind = RequestKind::kClass;
  request.target = target;
  request.arrival_seconds = arrival;
  return request;
}

struct ServiceRun {
  nn::ModelState final_state;
  std::string json;
};

ServiceRun run_service(int threads, core::QuickDropConfig cfg) {
  set_num_threads(threads);
  MiniFederation fed;
  auto qd = std::make_shared<core::QuickDrop>(fed.factory, fed.clients, cfg, 99);
  const auto trained = qd->train();
  ServiceConfig config;
  config.policy = SchedulerPolicy::kCoalesce;
  config.max_batch = 1;
  UnlearningService service(qd, trained, config);
  const auto report = service.run({class_request(1, 0.0), class_request(3, 5.0)});
  return {service.state(), report.to_json()};
}

TEST(QuantizedServe, RunBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  for (const fl::Codec codec : {fl::Codec::kInt8, fl::Codec::kBf16}) {
    SCOPED_TRACE(fl::codec_name(codec));
    const auto cfg = MiniFederation::config(codec);
    const auto serial = run_service(1, cfg);
    const auto parallel = run_service(4, cfg);
    expect_states_bitwise_equal(serial.final_state, parallel.final_state,
                                "quantized service state");
    EXPECT_EQ(serial.json, parallel.json);
  }
}

TEST(QuantizedServe, RunBitIdenticalAcrossThreadCountsUnderFaultPlan) {
  ThreadGuard guard;
  auto cfg = MiniFederation::config(fl::Codec::kInt8);
  fl::FaultRates rates;
  rates.crash = 0.15f;
  rates.corrupt_nan = 0.1f;
  rates.straggler = 0.1f;
  cfg.faults = fl::FaultPlan(77, rates);
  cfg.defense.min_quorum = 0.25f;
  cfg.defense.max_round_attempts = 2;
  const auto serial = run_service(1, cfg);
  const auto parallel = run_service(4, cfg);
  expect_states_bitwise_equal(serial.final_state, parallel.final_state,
                              "faulted quantized service state");
  EXPECT_EQ(serial.json, parallel.json);
}

TEST(QuantizedServe, ExecutorResumesMidRequestViaCheckpoint) {
  ThreadGuard guard;
  const auto cfg = MiniFederation::config(fl::Codec::kInt8);

  // Uninterrupted cycle at 1 thread, capturing a mid-recovery checkpoint.
  set_num_threads(1);
  ServiceRequest request = class_request(1, 0.0);
  std::vector<std::uint8_t> checkpoint_bytes;
  ExecutionResult full;
  {
    MiniFederation fed;
    auto qd = std::make_shared<core::QuickDrop>(fed.factory, fed.clients, cfg, 99);
    const auto trained = qd->train();
    Executor executor(qd, CostModel{});
    full = executor.execute(trained, {request},
                            [&](const core::UnlearnCursor& cursor, const nn::ModelState& state) {
                              if (cursor.phase != core::UnlearnCursor::kPhaseRecover ||
                                  cursor.rounds_done != 1) {
                                return;
                              }
                              auto cp = core::make_checkpoint(state, qd->stores());
                              cp.cursor = core::RoundCursor{.phase = "recover",
                                                            .rounds_done = cursor.rounds_done,
                                                            .rng_state = cursor.rng_state};
                              checkpoint_bytes = core::serialize_checkpoint(cp);
                            });
  }
  ASSERT_FALSE(checkpoint_bytes.empty());

  // Fresh coordinator, same quantized transport, resumed at 4 threads: the
  // remaining quantized rounds must replay onto identical bits.
  set_num_threads(4);
  MiniFederation fed;
  auto qd = std::make_shared<core::QuickDrop>(fed.factory, fed.clients, cfg, 99);
  const auto cp = core::deserialize_checkpoint(checkpoint_bytes);
  ASSERT_TRUE(cp.cursor.has_value());
  qd->load_stores(core::restore_stores(cp));
  Executor executor(qd, CostModel{});
  core::UnlearnCursor resume;
  resume.phase = core::UnlearnCursor::kPhaseRecover;
  resume.rounds_done = cp.cursor->rounds_done;
  resume.rng_state = cp.cursor->rng_state;
  const auto resumed = executor.execute(cp.global, {request}, {}, &resume);

  expect_states_bitwise_equal(full.state, resumed.state, "resumed quantized recovery");
  EXPECT_EQ(resumed.recovery_stats.rounds, full.recovery_stats.rounds - cp.cursor->rounds_done);
}

}  // namespace
}  // namespace quickdrop::serve
