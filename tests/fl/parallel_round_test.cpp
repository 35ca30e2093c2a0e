// Concurrent client rounds: run_resilient with a client_model_factory must be
// bit-identical to the serial path at any thread count — including under
// fault injection, quorum retries, partial participation, and round-level
// resume — with identical cost accounting and callback order.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/resilient.h"
#include "nn/convnet.h"
#include "util/thread_pool.h"

namespace quickdrop::fl {
namespace {

struct ThreadGuard {
  int saved = num_threads();
  ~ThreadGuard() { set_num_threads(saved); }
};

struct Fixture {
  data::TrainTest tt;
  std::vector<data::Dataset> clients;
  nn::ConvNetConfig net;
  std::unique_ptr<nn::Module> model;
  // Captured once: the serial engine trains clients on `model` itself, so
  // state_of(*model) changes after a run — every comparison must start here.
  nn::ModelState init;

  Fixture() : tt(make_data()) {
    Rng prng(1);
    clients = data::materialize(tt.train, data::iid_partition(tt.train, 6, prng));
    net.in_channels = 1;
    net.image_size = 8;
    net.num_classes = 3;
    net.width = 8;
    net.depth = 1;
    Rng mrng(2);
    model = nn::make_convnet(net, mrng);
    init = nn::state_of(*model);
  }

  ModelFactory factory() const {
    // Initial parameter values are irrelevant (every client loads the global
    // state first), so a fixed-seed factory keeps this test hermetic.
    const nn::ConvNetConfig cfg = net;
    return [cfg] {
      Rng r(7);
      return nn::make_convnet(cfg, r);
    };
  }

  static data::TrainTest make_data() {
    data::SyntheticSpec spec;
    spec.num_classes = 3;
    spec.channels = 1;
    spec.image_size = 8;
    spec.train_per_class = 24;
    spec.test_per_class = 6;
    spec.noise = 0.3f;
    spec.seed = 91;
    return data::make_synthetic(spec);
  }
};

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

ResilientConfig faulty_config(const Fixture& f) {
  ResilientConfig cfg{.rounds = 5, .participation = 0.75f};
  cfg.faults = FaultPlan(41, mixed_rates());
  cfg.defense.norm_outlier_multiplier = 8.0f;
  cfg.defense.min_quorum = 0.25f;
  cfg.defense.max_round_attempts = 2;
  cfg.client_model_factory = f.factory();
  return cfg;
}

// One full run at the given thread count; returns (state, cost) and appends
// every client callback as (round, client) to `order` if provided.
std::pair<nn::ModelState, CostMeter> run_at(const Fixture& f, ResilientConfig cfg, int threads,
                                            std::vector<std::pair<int, int>>* order = nullptr) {
  set_num_threads(threads);
  SgdLocalUpdate update(2, 8, 0.1f);
  CostMeter cost;
  Rng rng(17);
  ClientStateCallback client_cb;
  if (order) {
    client_cb = [order](int round, int client, const nn::ModelState&, const nn::ModelState&) {
      order->emplace_back(round, client);
    };
  }
  auto state = run_resilient(*f.model, f.init, f.clients, update, cfg, rng, cost, {}, client_cb);
  return {std::move(state), cost};
}

TEST(ParallelRoundTest, BitIdenticalAcrossThreadCountsUnderFaults) {
  Fixture f;
  const ResilientConfig cfg = faulty_config(f);
  ThreadGuard guard;
  std::vector<std::pair<int, int>> order1;
  const auto [serial, cost1] = run_at(f, cfg, 1, &order1);
  ASSERT_FALSE(order1.empty());
  for (const int t : {2, 8}) {
    std::vector<std::pair<int, int>> order_t;
    const auto [parallel, cost_t] = run_at(f, cfg, t, &order_t);
    expect_states_bitwise_equal(serial, parallel);
    // Cost accounting merges per-client meters in cohort order: totals and
    // fault counters must match the serial run exactly.
    EXPECT_EQ(cost1.sample_grads, cost_t.sample_grads) << t;
    EXPECT_EQ(cost1.bytes_up, cost_t.bytes_up) << t;
    EXPECT_EQ(cost1.bytes_down, cost_t.bytes_down) << t;
    EXPECT_EQ(cost1.crashed_clients, cost_t.crashed_clients) << t;
    EXPECT_EQ(cost1.straggler_timeouts, cost_t.straggler_timeouts) << t;
    EXPECT_EQ(cost1.quarantined_updates, cost_t.quarantined_updates) << t;
    EXPECT_EQ(cost1.retried_rounds, cost_t.retried_rounds) << t;
    EXPECT_EQ(cost1.lost_rounds, cost_t.lost_rounds) << t;
    // Validation stays serial, so FedEraser-style history callbacks fire in
    // the same fixed client order at any thread count.
    EXPECT_EQ(order1, order_t) << t;
  }
}

TEST(ParallelRoundTest, FactoryPathMatchesLegacySerialEngine) {
  // The concurrent engine (factory set) must reproduce the legacy path
  // (factory unset) bitwise, even while actually running multi-threaded.
  Fixture f;
  ResilientConfig with = faulty_config(f);
  ResilientConfig without = with;
  without.client_model_factory = nullptr;
  ThreadGuard guard;
  const auto [legacy, cost_a] = run_at(f, without, 8);
  const auto [concurrent, cost_b] = run_at(f, with, 8);
  expect_states_bitwise_equal(legacy, concurrent);
  EXPECT_EQ(cost_a.sample_grads, cost_b.sample_grads);
}

TEST(ParallelRoundTest, ResumeCursorInvariantAcrossThreadCounts) {
  // Kill a 1-thread run after round 2, resume the tail with 8 threads: the
  // spliced run must land exactly on the 8-thread uninterrupted final state.
  Fixture f;
  const ResilientConfig cfg = faulty_config(f);
  ThreadGuard guard;

  set_num_threads(1);
  SgdLocalUpdate update1(2, 8, 0.1f);
  CostMeter cost1;
  Rng rng1(29);
  nn::ModelState cursor_state;
  std::vector<std::uint8_t> cursor_rng;
  const auto full = run_resilient(*f.model, f.init, f.clients, update1, cfg, rng1, cost1, {}, {},
                                  [&](int round, const nn::ModelState& g, const Rng& r) {
                                    if (round == 2) {
                                      cursor_state = g;
                                      cursor_rng = r.serialize();
                                    }
                                  });
  ASSERT_FALSE(cursor_rng.empty());

  set_num_threads(8);
  SgdLocalUpdate update2(2, 8, 0.1f);
  CostMeter cost2;
  Rng rng2 = Rng::deserialize(cursor_rng);
  ResilientConfig resume = cfg;
  resume.start_round = 3;
  const auto resumed =
      run_resilient(*f.model, cursor_state, f.clients, update2, resume, rng2, cost2);
  expect_states_bitwise_equal(resumed, full);
}

TEST(ParallelRoundTest, MoreThreadsThanClientsIsSafe) {
  Fixture f;
  ResilientConfig cfg{.rounds = 2, .participation = 1.0f};
  cfg.client_model_factory = f.factory();
  ThreadGuard guard;
  const auto [serial, cost1] = run_at(f, cfg, 1);
  const auto [wide, cost2] = run_at(f, cfg, 16);  // 16 threads, 6 clients
  expect_states_bitwise_equal(serial, wide);
  EXPECT_EQ(cost1.sample_grads, cost2.sample_grads);
}

TEST(ParallelRoundTest, SingleClientCohortRunsSerially) {
  Fixture f;
  // participation low enough that each round samples exactly one client.
  ResilientConfig cfg{.rounds = 3, .participation = 1.0f / 6.0f};
  cfg.client_model_factory = f.factory();
  ThreadGuard guard;
  const auto [serial, cost1] = run_at(f, cfg, 1);
  const auto [parallel, cost2] = run_at(f, cfg, 4);
  expect_states_bitwise_equal(serial, parallel);
  EXPECT_EQ(cost1.sample_grads, cost2.sample_grads);
}

}  // namespace
}  // namespace quickdrop::fl
