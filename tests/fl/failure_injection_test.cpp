// Failure-injection tests: FedAvg must stay correct when sampled clients
// crash mid-round, and the resilient engine must contain richer faults
// (stragglers, corrupted uploads) behind server-side validation.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/resilient.h"
#include "metrics/evaluate.h"
#include "nn/convnet.h"

namespace quickdrop::fl {
namespace {

struct Fixture {
  data::TrainTest tt;
  std::vector<data::Dataset> clients;
  std::unique_ptr<nn::Module> model;

  Fixture() : tt(make_data()) {
    Rng prng(1);
    clients = data::materialize(tt.train, data::iid_partition(tt.train, 4, prng));
    nn::ConvNetConfig cfg;
    cfg.in_channels = 1;
    cfg.image_size = 8;
    cfg.num_classes = 3;
    cfg.width = 8;
    cfg.depth = 1;
    Rng mrng(2);
    model = nn::make_convnet(cfg, mrng);
  }

  static data::TrainTest make_data() {
    data::SyntheticSpec spec;
    spec.num_classes = 3;
    spec.channels = 1;
    spec.image_size = 8;
    spec.train_per_class = 20;
    spec.test_per_class = 10;
    spec.noise = 0.3f;
    spec.seed = 91;
    return data::make_synthetic(spec);
  }
};

TEST(FailureInjectionTest, ModerateDropoutStillLearns) {
  Fixture f;
  SgdLocalUpdate update(5, 16, 0.1f);
  CostMeter cost;
  Rng rng(3);
  ResilientConfig cfg{.rounds = 10, .participation = 1.0f};
  cfg.faults = FaultPlan::bernoulli_crash(rng.next_u64(), 0.3f);
  const auto state =
      run_resilient(*f.model, nn::state_of(*f.model), f.clients, update, cfg, rng, cost);
  nn::load_state(*f.model, state);
  EXPECT_GT(metrics::accuracy(*f.model, f.tt.test), 0.6);
  // Fewer sample-gradients than the failure-free run would use.
  EXPECT_LT(cost.sample_grads, 10 * 4 * 5 * 16);
  EXPECT_GT(cost.sample_grads, 0);
}

TEST(FailureInjectionTest, FullCohortCrashIsNoOpRound) {
  Fixture f;
  SgdLocalUpdate update(1, 8, 0.1f);
  CostMeter cost;
  Rng rng(3);
  // Crash rate close to 1: most rounds lose everyone.
  ResilientConfig cfg{.rounds = 3, .participation = 1.0f};
  cfg.faults = FaultPlan::bernoulli_crash(rng.next_u64(), 0.999f);
  const auto init = nn::state_of(*f.model);
  int callbacks = 0;
  const auto state = run_resilient(*f.model, init, f.clients, update, cfg, rng, cost,
                                   [&](int, const nn::ModelState&) { ++callbacks; });
  EXPECT_EQ(callbacks, 3);  // every round reports, even lost ones
  EXPECT_EQ(cost.rounds, 3);
  // With near-certain total failure the state is (almost surely) unchanged.
  EXPECT_NEAR(nn::l2_norm(nn::subtract(state, init)), 0.0, 1e-9);
}

TEST(FailureInjectionTest, ZeroDropoutMatchesBaseline) {
  // A zero crash rate injects nothing: same result as no fault plan at all.
  Fixture f;
  SgdLocalUpdate update(2, 8, 0.1f);
  CostMeter cost1, cost2;
  Rng rng1(7), rng2(7);
  const auto init = nn::state_of(*f.model);
  ResilientConfig plain{.rounds = 2, .participation = 1.0f};
  ResilientConfig with_zero = plain;
  with_zero.faults = FaultPlan::bernoulli_crash(7, 0.0f);
  const auto a = run_resilient(*f.model, init, f.clients, update, plain, rng1, cost1);
  const auto b = run_resilient(*f.model, init, f.clients, update, with_zero, rng2, cost2);
  EXPECT_NEAR(nn::l2_norm(nn::subtract(a, b)), 0.0, 1e-9);
}

TEST(FailureInjectionTest, ConfigValidation) {
  // Crash rates outside [0, 1] are refused when the plan is built.
  EXPECT_THROW(FaultPlan::bernoulli_crash(3, 1.5f), std::invalid_argument);
  EXPECT_THROW(FaultPlan::bernoulli_crash(3, -0.1f), std::invalid_argument);
  Fixture f;
  SgdLocalUpdate update(1, 8, 0.1f);
  CostMeter cost;
  Rng rng(3);
  ResilientConfig bad{.rounds = -1, .participation = 1.0f};
  EXPECT_THROW(
      run_resilient(*f.model, nn::state_of(*f.model), f.clients, update, bad, rng, cost),
      std::invalid_argument);
  bad = ResilientConfig{.rounds = 2, .participation = 1.0f, .start_round = 3};
  EXPECT_THROW(
      run_resilient(*f.model, nn::state_of(*f.model), f.clients, update, bad, rng, cost),
      std::invalid_argument);
}

TEST(FailureInjectionTest, NonFiniteConfigRejected) {
  // Regression: NaN participation and crash rates used to slip past the
  // range checks (NaN compares false against every bound).
  Fixture f;
  SgdLocalUpdate update(1, 8, 0.1f);
  CostMeter cost;
  Rng rng(3);
  ResilientConfig bad{.rounds = 1, .participation = std::nanf("")};
  EXPECT_THROW(
      run_resilient(*f.model, nn::state_of(*f.model), f.clients, update, bad, rng, cost),
      std::invalid_argument);
  EXPECT_THROW(FaultPlan::bernoulli_crash(3, std::nanf("")), std::invalid_argument);
}

void expect_states_bitwise_equal(const nn::ModelState& a, const nn::ModelState& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.numel(), b.numel());
  for (std::int64_t j = 0; j < a.numel(); ++j) {
    ASSERT_EQ(a.at(j), b.at(j)) << "flat entry " << j;
  }
}

FaultRates mixed_rates() {
  FaultRates rates;
  rates.crash = 0.1f;
  rates.straggler = 0.05f;
  rates.corrupt_nan = 0.1f;
  rates.corrupt_inf = 0.05f;
  rates.exploded_norm = 0.05f;
  rates.stale_update = 0.05f;
  return rates;
}

TEST(FailureInjectionTest, SameSeedAndPlanAreBitwiseDeterministic) {
  // Acceptance: same seed + same FaultPlan => bitwise-identical final state.
  Fixture f;
  ResilientConfig cfg{.rounds = 6, .participation = 0.75f};
  cfg.faults = FaultPlan(41, mixed_rates());
  cfg.defense.norm_outlier_multiplier = 8.0f;
  cfg.defense.min_quorum = 0.5f;
  cfg.defense.max_round_attempts = 3;
  const auto init = nn::state_of(*f.model);
  nn::ModelState results[2];
  CostMeter costs[2];
  for (int i = 0; i < 2; ++i) {
    SgdLocalUpdate update(2, 8, 0.1f);
    Rng rng(17);
    results[i] = run_resilient(*f.model, init, f.clients, update, cfg, rng, costs[i]);
  }
  expect_states_bitwise_equal(results[0], results[1]);
  EXPECT_EQ(costs[0].crashed_clients, costs[1].crashed_clients);
  EXPECT_EQ(costs[0].quarantined_updates, costs[1].quarantined_updates);
  EXPECT_EQ(costs[0].sample_grads, costs[1].sample_grads);
}

TEST(FailureInjectionTest, PoisonedUploadsAreQuarantinedAndGlobalStaysFinite) {
  // Acceptance: with corruption faults on, the aggregated global state is
  // all-finite after every round and each rejection is recorded.
  Fixture f;
  FaultRates rates;
  rates.corrupt_nan = 0.2f;
  rates.corrupt_inf = 0.1f;
  ResilientConfig cfg{.rounds = 8, .participation = 1.0f};
  cfg.faults = FaultPlan(23, rates);
  SgdLocalUpdate update(2, 8, 0.1f);
  CostMeter cost;
  Rng rng(9);
  int rounds_seen = 0;
  const auto state = run_resilient(*f.model, nn::state_of(*f.model), f.clients, update, cfg, rng,
                                   cost, [&](int, const nn::ModelState& g) {
                                     ++rounds_seen;
                                     EXPECT_TRUE(nn::all_finite(g));
                                   });
  EXPECT_EQ(rounds_seen, 8);
  EXPECT_TRUE(nn::all_finite(state));
  // Every corrupt draw in the schedule maps to exactly one quarantine entry
  // (participation 1.0, single attempt per round => the schedule is the run).
  std::int64_t expected = 0;
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < 4; ++c) {
      const FaultKind k = cfg.faults.fault_for(r, 0, c);
      expected += k == FaultKind::kCorruptNan || k == FaultKind::kCorruptInf;
    }
  }
  EXPECT_GT(expected, 0);
  EXPECT_EQ(cost.quarantined_updates, expected);
}

TEST(FailureInjectionTest, ExplodedNormCaughtByOutlierRule) {
  Fixture f;
  ResilientConfig cfg{.rounds = 2, .participation = 1.0f};
  cfg.faults.inject(0, 1, FaultKind::kExplodedNorm);
  cfg.defense.norm_outlier_multiplier = 8.0f;
  ResilientConfig undefended = cfg;
  undefended.defense.norm_outlier_multiplier = 0.0f;
  SgdLocalUpdate update1(2, 8, 0.1f), update2(2, 8, 0.1f);
  CostMeter cost1, cost2;
  Rng rng1(9), rng2(9);
  const auto init = nn::state_of(*f.model);
  const auto defended = run_resilient(*f.model, init, f.clients, update1, cfg, rng1, cost1);
  const auto poisoned = run_resilient(*f.model, init, f.clients, update2, undefended, rng2, cost2);
  EXPECT_EQ(cost1.quarantined_updates, 1);
  EXPECT_EQ(cost2.quarantined_updates, 0);
  // Undefended, the exploded update dominates the average.
  EXPECT_LT(nn::l2_norm(defended), 1e3);
  EXPECT_GT(nn::l2_norm(poisoned), 1e4);
}

TEST(FailureInjectionTest, QuorumFailureRetriesAndRecoversRound) {
  // Acceptance: a scripted first-attempt wipeout retries once and then the
  // run proceeds exactly like a fault-free one.
  Fixture f;
  ResilientConfig cfg{.rounds = 3, .participation = 1.0f};
  for (int c = 0; c < 4; ++c) cfg.faults.inject(1, c, FaultKind::kCrash);
  cfg.defense.min_quorum = 0.5f;
  cfg.defense.max_round_attempts = 2;
  cfg.defense.retry_backoff_seconds = 2.0f;
  ResilientConfig clean{.rounds = 3, .participation = 1.0f};
  SgdLocalUpdate update1(2, 8, 0.1f), update2(2, 8, 0.1f);
  CostMeter cost1, cost2;
  Rng rng1(13), rng2(13);
  const auto init = nn::state_of(*f.model);
  const auto retried = run_resilient(*f.model, init, f.clients, update1, cfg, rng1, cost1);
  const auto baseline = run_resilient(*f.model, init, f.clients, update2, clean, rng2, cost2);
  EXPECT_EQ(cost1.retried_rounds, 1);
  EXPECT_EQ(cost1.lost_rounds, 0);
  EXPECT_EQ(cost1.crashed_clients, 4);
  EXPECT_DOUBLE_EQ(cost1.sim_backoff_seconds, 2.0);
  expect_states_bitwise_equal(retried, baseline);
}

TEST(FailureInjectionTest, QuorumExhaustionLosesRoundAndCarriesGlobalOver) {
  Fixture f;
  ResilientConfig cfg{.rounds = 1, .participation = 1.0f};
  for (int c = 0; c < 4; ++c) cfg.faults.inject(0, c, FaultKind::kCrash);
  SgdLocalUpdate update(2, 8, 0.1f);
  CostMeter cost;
  Rng rng(13);
  const auto init = nn::state_of(*f.model);
  const auto state = run_resilient(*f.model, init, f.clients, update, cfg, rng, cost);
  EXPECT_EQ(cost.lost_rounds, 1);
  EXPECT_EQ(cost.rounds, 1);
  expect_states_bitwise_equal(state, init);
}

TEST(FailureInjectionTest, StragglerSpendsComputeButIsNotAggregated) {
  Fixture f;
  ResilientConfig straggle{.rounds = 1, .participation = 1.0f};
  straggle.faults.inject(0, 2, FaultKind::kStraggler);
  ResilientConfig crash{.rounds = 1, .participation = 1.0f};
  crash.faults.inject(0, 2, FaultKind::kCrash);
  SgdLocalUpdate update1(2, 8, 0.1f), update2(2, 8, 0.1f);
  CostMeter cost1, cost2;
  Rng rng1(13), rng2(13);
  const auto init = nn::state_of(*f.model);
  const auto a = run_resilient(*f.model, init, f.clients, update1, straggle, rng1, cost1);
  const auto b = run_resilient(*f.model, init, f.clients, update2, crash, rng2, cost2);
  // Identical aggregate (the late upload is discarded either way) ...
  expect_states_bitwise_equal(a, b);
  EXPECT_EQ(cost1.straggler_timeouts, 1);
  EXPECT_EQ(cost2.crashed_clients, 1);
  // ... but the straggler burned local compute and a model download.
  EXPECT_GT(cost1.sample_grads, cost2.sample_grads);
  EXPECT_GT(cost1.bytes_down, cost2.bytes_down);
}

TEST(FailureInjectionTest, ResumeFromCursorMatchesUninterruptedRun) {
  // Acceptance: kill after round k, resume from the (state, rng) cursor,
  // land on a bitwise-identical final state.
  Fixture f;
  ResilientConfig cfg{.rounds = 6, .participation = 0.75f};
  cfg.faults = FaultPlan(41, mixed_rates());
  cfg.defense.min_quorum = 0.25f;
  cfg.defense.max_round_attempts = 2;
  const auto init = nn::state_of(*f.model);

  SgdLocalUpdate update1(2, 8, 0.1f);
  CostMeter cost1;
  Rng rng1(29);
  nn::ModelState cursor_state;
  std::vector<std::uint8_t> cursor_rng;
  const auto full = run_resilient(*f.model, init, f.clients, update1, cfg, rng1, cost1, {}, {},
                                  [&](int round, const nn::ModelState& g, const Rng& r) {
                                    if (round == 2) {  // "crash" after 3 completed rounds
                                      cursor_state = g;
                                      cursor_rng = r.serialize();
                                    }
                                  });
  ASSERT_FALSE(cursor_rng.empty());

  SgdLocalUpdate update2(2, 8, 0.1f);
  CostMeter cost2;
  Rng rng2 = Rng::deserialize(cursor_rng);
  ResilientConfig resume = cfg;
  resume.start_round = 3;
  const auto resumed =
      run_resilient(*f.model, cursor_state, f.clients, update2, resume, rng2, cost2);
  expect_states_bitwise_equal(resumed, full);
}

}  // namespace
}  // namespace quickdrop::fl
