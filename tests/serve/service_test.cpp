// End-to-end service contracts: coalescing correctness versus sequential
// unlearning, thread-count invariance of the full service run (with and
// without an active fault plan), and mid-request resume through
// core/checkpoint.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "metrics/evaluate.h"
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

// A fresh federation per run: the factory's shared RNG must start at the same
// point for every run under comparison.
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

  static core::QuickDropConfig config() {
    core::QuickDropConfig cfg;
    cfg.fl_rounds = 5;
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
    return cfg;
  }
};

void expect_states_bitwise_equal(const nn::ModelState& a, const nn::ModelState& b,
                                 const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
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

/// Arrivals clustered tightly against a slow cost model, so under coalescing
/// the later requests pile up behind the first cycle and merge.
std::vector<ServiceRequest> clustered_trace() {
  return {class_request(1, 0.0), class_request(2, 5.0), class_request(3, 9.0)};
}

CostModel slow_rounds() {
  CostModel cost;
  cost.seconds_per_round = 50.0;
  cost.seconds_per_sample_grad = 0.0;
  return cost;
}

struct ServiceRun {
  nn::ModelState final_state;
  ServiceReport report;
  std::string json;
  data::Dataset test;
  fl::ModelFactory factory;
};

/// Coalescing service over clustered_trace(); max_batch 1 serves one
/// request per cycle in admission order, 0 merges every pending request.
ServiceRun run_service(int max_batch, int threads, core::QuickDropConfig cfg) {
  set_num_threads(threads);
  MiniFederation fed;
  auto qd = std::make_shared<core::QuickDrop>(fed.factory, fed.clients, cfg, 99);
  const auto trained = qd->train();
  ServiceConfig config;
  config.policy = SchedulerPolicy::kCoalesce;
  config.max_batch = max_batch;
  config.cost_model = slow_rounds();
  UnlearningService service(qd, trained, config);
  ServiceRun out{.final_state = {},
                 .report = service.run(clustered_trace()),
                 .json = {},
                 .test = fed.tt.test,
                 .factory = fed.factory};
  out.final_state = service.state();
  out.json = out.report.to_json();
  return out;
}

TEST(ServiceTest, CoalescingMatchesSequentialOnRetainedClassesWithFewerRounds) {
  ThreadGuard guard;
  const auto cfg = MiniFederation::config();
  const auto serial = run_service(1, 1, cfg);
  const auto coalesce = run_service(0, 1, cfg);

  ASSERT_EQ(serial.report.completed.size(), 3u);
  ASSERT_EQ(coalesce.report.completed.size(), 3u);
  // With 50s rounds and arrivals 5s apart, requests 2 and 3 arrive during
  // cycle 0 and must merge: strictly fewer cycles and FL rounds than one
  // request per cycle.
  EXPECT_LT(coalesce.report.cycles, serial.report.cycles);
  EXPECT_LT(coalesce.report.total_fl_rounds, serial.report.total_fl_rounds);
  EXPECT_EQ(serial.report.cycles, 3);
  EXPECT_EQ(coalesce.report.cycles, 2);

  // Both histories forget classes {1,2,3}; the retained class 0 must end up
  // comparably accurate, and every forgotten class near zero, either way.
  auto model = serial.factory();
  nn::load_state(*model, serial.final_state);
  const auto pc_serial = metrics::per_class_accuracy(*model, serial.test);
  nn::load_state(*model, coalesce.final_state);
  const auto pc_coalesce = metrics::per_class_accuracy(*model, coalesce.test);
  for (const int forgotten : {1, 2, 3}) {
    EXPECT_LT(pc_serial[static_cast<std::size_t>(forgotten)], 0.25) << forgotten;
    EXPECT_LT(pc_coalesce[static_cast<std::size_t>(forgotten)], 0.25) << forgotten;
  }
  EXPECT_NEAR(pc_serial[0], pc_coalesce[0], 0.25);
  EXPECT_GT(pc_coalesce[0], 0.5);
}

TEST(ServiceTest, RunBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const auto cfg = MiniFederation::config();
  const auto serial = run_service(0, 1, cfg);
  const auto parallel = run_service(0, 4, cfg);
  expect_states_bitwise_equal(serial.final_state, parallel.final_state, "service state");
  // The whole report — latencies, rounds, bytes — is simulated, so the JSON
  // must match byte for byte.
  EXPECT_EQ(serial.json, parallel.json);
}

TEST(ServiceTest, ReportCarriesTheVerifiedSgaOutcome) {
  ThreadGuard guard;
  // Fixed rounds measure nothing.
  const auto fixed = run_service(0, 1, MiniFederation::config());
  ASSERT_FALSE(fixed.report.completed.empty());
  EXPECT_EQ(fixed.report.completed.front().sga_forget_accuracy, -1.0);
  EXPECT_NE(fixed.json.find("\"sga_target_reached\": null"), std::string::npos);
  // A learning rate too small to erase anything in two rounds: verified SGA
  // runs out of rounds, and every request of the cycle says so.
  auto cfg = MiniFederation::config();
  cfg.unlearn_lr = 1e-6f;
  cfg.unlearn_rounds = 1;
  cfg.max_unlearn_rounds = 2;
  const auto missed = run_service(0, 1, cfg);
  ASSERT_FALSE(missed.report.completed.empty());
  for (const auto& m : missed.report.completed) {
    EXPECT_FALSE(m.sga_target_reached) << m.id;
    EXPECT_GT(m.sga_forget_accuracy, cfg.unlearn_target_accuracy) << m.id;
  }
  EXPECT_NE(missed.json.find("\"sga_target_reached\": false"), std::string::npos);
}

TEST(ServiceTest, RunBitIdenticalAcrossThreadCountsUnderFaultPlan) {
  ThreadGuard guard;
  auto cfg = MiniFederation::config();
  fl::FaultRates rates;
  rates.crash = 0.15f;
  rates.corrupt_nan = 0.1f;
  rates.straggler = 0.1f;
  cfg.faults = fl::FaultPlan(77, rates);
  cfg.defense.min_quorum = 0.25f;
  cfg.defense.max_round_attempts = 2;
  const auto serial = run_service(1, 1, cfg);
  const auto parallel = run_service(1, 4, cfg);
  expect_states_bitwise_equal(serial.final_state, parallel.final_state, "faulted service state");
  EXPECT_EQ(serial.json, parallel.json);
}

TEST(ServiceTest, RejectsLayoutMismatchedInitialState) {
  // The layout-hash gate: a state restored from the wrong checkpoint
  // (different net architecture) must fail at construction, not as a shape
  // error mid-request.
  ThreadGuard guard;
  set_num_threads(1);
  MiniFederation fed;
  auto qd = std::make_shared<core::QuickDrop>(fed.factory, fed.clients,
                                              MiniFederation::config(), 5);
  ServiceConfig config;
  EXPECT_NO_THROW(UnlearningService(qd, qd->initial_state(), config));
  EXPECT_THROW(UnlearningService(qd, nn::ModelState{}, config), std::invalid_argument);
  nn::ModelState wrong_architecture{nn::StateLayout::of_shapes({{3, 3}, {3}})};
  EXPECT_THROW(UnlearningService(qd, wrong_architecture, config), std::invalid_argument);
}

TEST(ServiceTest, RejectsInvalidTraceRequestsWithReasons) {
  ThreadGuard guard;
  set_num_threads(1);
  MiniFederation fed;
  auto qd = std::make_shared<core::QuickDrop>(fed.factory, fed.clients,
                                              MiniFederation::config(), 99);
  const auto trained = qd->train();
  auto trace = clustered_trace();
  trace.push_back(class_request(2, 10.0));   // duplicate of a pending request
  trace.push_back(class_request(99, 11.0));  // out of range

  ServiceConfig config;
  config.policy = SchedulerPolicy::kCoalesce;
  config.max_batch = 0;
  config.cost_model = slow_rounds();
  UnlearningService service(qd, trained, config);
  const auto report = service.run(trace);
  EXPECT_EQ(report.completed.size(), 3u);
  ASSERT_EQ(report.rejected.size(), 2u);
  EXPECT_EQ(report.rejected[0].reason, RejectReason::kDuplicatePending);
  EXPECT_EQ(report.rejected[1].reason, RejectReason::kTargetOutOfRange);
}

TEST(ServiceTest, ExecutorResumesMidRequestViaCheckpoint) {
  ThreadGuard guard;
  const auto cfg = MiniFederation::config();

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

  // A fresh coordinator (same seed, no training) restores the checkpoint and
  // resumes the in-flight recovery at 4 threads: bitwise-identical landing.
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

  expect_states_bitwise_equal(full.state, resumed.state, "resumed mid-recovery");
  // The resumed cycle accounts only the remaining rounds.
  EXPECT_EQ(resumed.recovery_stats.rounds,
            full.recovery_stats.rounds - cp.cursor->rounds_done);
  EXPECT_EQ(resumed.unlearn_stats.rounds, 0);
  EXPECT_TRUE(qd->forgotten_classes().count(1));
}

TEST(ServiceTest, ExecutorResumesMidSgaViaCheckpoint) {
  ThreadGuard guard;
  const auto cfg = MiniFederation::config();

  set_num_threads(1);
  ServiceRequest request = class_request(2, 0.0);
  std::vector<std::uint8_t> checkpoint_bytes;
  ExecutionResult full;
  {
    MiniFederation fed;
    auto qd = std::make_shared<core::QuickDrop>(fed.factory, fed.clients, cfg, 99);
    const auto trained = qd->train();
    Executor executor(qd, CostModel{});
    full = executor.execute(trained, {request},
                            [&](const core::UnlearnCursor& cursor, const nn::ModelState& state) {
                              if (cursor.phase != core::UnlearnCursor::kPhaseUnlearn ||
                                  cursor.rounds_done != 1) {
                                return;
                              }
                              auto cp = core::make_checkpoint(state, qd->stores());
                              cp.cursor = core::RoundCursor{.phase = "unlearn",
                                                            .rounds_done = cursor.rounds_done,
                                                            .rng_state = cursor.rng_state};
                              checkpoint_bytes = core::serialize_checkpoint(cp);
                            });
  }
  ASSERT_FALSE(checkpoint_bytes.empty());

  set_num_threads(4);
  MiniFederation fed;
  auto qd = std::make_shared<core::QuickDrop>(fed.factory, fed.clients, cfg, 99);
  const auto cp = core::deserialize_checkpoint(checkpoint_bytes);
  ASSERT_TRUE(cp.cursor.has_value());
  qd->load_stores(core::restore_stores(cp));
  Executor executor(qd, CostModel{});
  core::UnlearnCursor resume;
  resume.phase = core::UnlearnCursor::kPhaseUnlearn;
  resume.rounds_done = cp.cursor->rounds_done;
  resume.rng_state = cp.cursor->rng_state;
  const auto resumed = executor.execute(cp.global, {request}, {}, &resume);

  expect_states_bitwise_equal(full.state, resumed.state, "resumed mid-SGA");
  EXPECT_EQ(resumed.unlearn_stats.rounds, full.unlearn_stats.rounds - cp.cursor->rounds_done);
  EXPECT_EQ(resumed.recovery_stats.rounds, full.recovery_stats.rounds);
}

}  // namespace
}  // namespace quickdrop::serve
