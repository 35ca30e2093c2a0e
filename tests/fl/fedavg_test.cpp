#include <gtest/gtest.h>

#include <set>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/resilient.h"
#include "metrics/evaluate.h"
#include "nn/convnet.h"

namespace quickdrop::fl {
namespace {

data::SyntheticSpec tiny_spec() {
  data::SyntheticSpec spec;
  spec.num_classes = 3;
  spec.channels = 1;
  spec.image_size = 8;
  spec.train_per_class = 20;
  spec.test_per_class = 10;
  spec.noise = 0.3f;
  spec.max_shift = 1;
  spec.seed = 9;
  return spec;
}

nn::ConvNetConfig tiny_net() {
  nn::ConvNetConfig cfg;
  cfg.in_channels = 1;
  cfg.image_size = 8;
  cfg.num_classes = 3;
  cfg.width = 8;
  cfg.depth = 1;
  return cfg;
}

struct Fixture {
  data::TrainTest tt = data::make_synthetic(tiny_spec());
  std::vector<data::Dataset> clients;
  ModelFactory factory;
  std::unique_ptr<nn::Module> scratch;

  Fixture() {
    Rng prng(1);
    clients = data::materialize(tt.train, data::iid_partition(tt.train, 3, prng));
    auto shared_rng = std::make_shared<Rng>(11);
    factory = [rng = shared_rng]() { return nn::make_convnet(tiny_net(), *rng); };
    scratch = factory();
  }
};

TEST(SgdLocalUpdateTest, ReducesLoss) {
  Fixture f;
  const double before = metrics::mean_loss(*f.scratch, f.tt.train);
  SgdLocalUpdate update(10, 16, 0.1f);
  CostMeter cost;
  Rng rng(3);
  update.run(*f.scratch, f.tt.train, 0, 0, rng, cost);
  EXPECT_LT(metrics::mean_loss(*f.scratch, f.tt.train), before);
  EXPECT_EQ(cost.sample_grads, 10 * 16);
}

TEST(SgdLocalUpdateTest, AscentIncreasesLoss) {
  Fixture f;
  // First descend a bit so ascent has somewhere to go.
  SgdLocalUpdate descend(20, 16, 0.1f);
  CostMeter cost;
  Rng rng(3);
  descend.run(*f.scratch, f.tt.train, 0, 0, rng, cost);
  const double mid = metrics::mean_loss(*f.scratch, f.tt.train);
  SgdLocalUpdate ascend(10, 16, 0.1f, nn::UpdateDirection::kAscent);
  ascend.run(*f.scratch, f.tt.train, 0, 0, rng, cost);
  EXPECT_GT(metrics::mean_loss(*f.scratch, f.tt.train), mid);
}

TEST(SgdLocalUpdateTest, EmptyDatasetIsNoOp) {
  Fixture f;
  const auto before = nn::state_of(*f.scratch);
  SgdLocalUpdate update(5, 16, 0.1f);
  CostMeter cost;
  Rng rng(3);
  const data::Dataset empty(f.tt.train.image_shape(), f.tt.train.num_classes());
  update.run(*f.scratch, empty, 0, 0, rng, cost);
  EXPECT_DOUBLE_EQ(nn::l2_norm(nn::subtract(nn::state_of(*f.scratch), before)), 0.0);
  EXPECT_EQ(cost.sample_grads, 0);
}

TEST(SgdLocalUpdateTest, Validation) {
  EXPECT_THROW(SgdLocalUpdate(0, 16, 0.1f), std::invalid_argument);
  EXPECT_THROW(SgdLocalUpdate(5, 0, 0.1f), std::invalid_argument);
  EXPECT_THROW(SgdLocalUpdate(5, 16, 0.0f), std::invalid_argument);
}

TEST(FedAvgTest, TrainingImprovesAccuracy) {
  Fixture f;
  SgdLocalUpdate update(5, 16, 0.1f);
  ResilientConfig cfg{.rounds = 8, .participation = 1.0f};
  CostMeter cost;
  Rng rng(5);
  const auto state = run_resilient(*f.scratch, nn::state_of(*f.scratch), f.clients, update, cfg,
                                   rng, cost);
  nn::load_state(*f.scratch, state);
  EXPECT_GT(metrics::accuracy(*f.scratch, f.tt.test), 0.75);
  EXPECT_EQ(cost.rounds, 8);
  EXPECT_EQ(cost.sample_grads, 8 * 3 * 5 * 16);
}

TEST(FedAvgTest, RoundCallbackFires) {
  Fixture f;
  SgdLocalUpdate update(1, 8, 0.1f);
  ResilientConfig cfg{.rounds = 3, .participation = 1.0f};
  CostMeter cost;
  Rng rng(5);
  std::vector<int> rounds;
  run_resilient(*f.scratch, nn::state_of(*f.scratch), f.clients, update, cfg, rng, cost,
                [&](int round, const nn::ModelState&) { rounds.push_back(round); });
  EXPECT_EQ(rounds, (std::vector<int>{0, 1, 2}));
}

TEST(FedAvgTest, ClientCallbackSeesAllClients) {
  Fixture f;
  SgdLocalUpdate update(1, 8, 0.1f);
  ResilientConfig cfg{.rounds = 2, .participation = 1.0f};
  CostMeter cost;
  Rng rng(5);
  int calls = 0;
  run_resilient(*f.scratch, nn::state_of(*f.scratch), f.clients, update, cfg, rng, cost, {},
                [&](int round, int client, const nn::ModelState& local,
                    const nn::ModelState& global) {
                  (void)round;
                  (void)client;
                  EXPECT_EQ(local.size(), global.size());
                  ++calls;
                });
  EXPECT_EQ(calls, 2 * 3);
}

TEST(FedAvgTest, PartialParticipationSamplesSubset) {
  Fixture f;
  SgdLocalUpdate update(1, 8, 0.1f);
  ResilientConfig cfg{.rounds = 4, .participation = 0.34f};  // 1 of 3 clients
  CostMeter cost;
  Rng rng(5);
  std::set<int> seen;
  run_resilient(*f.scratch, nn::state_of(*f.scratch), f.clients, update, cfg, rng, cost, {},
                [&](int, int client, const nn::ModelState&, const nn::ModelState&) {
                  seen.insert(client);
                });
  // 1 client per round.
  EXPECT_EQ(cost.sample_grads, 4 * 1 * 1 * 8);
  EXPECT_GE(seen.size(), 1u);
}

TEST(FedAvgTest, SkipsEmptyClients) {
  Fixture f;
  std::vector<data::Dataset> clients = f.clients;
  clients.push_back(data::Dataset(f.tt.train.image_shape(), f.tt.train.num_classes()));
  SgdLocalUpdate update(1, 8, 0.1f);
  ResilientConfig cfg{.rounds = 1, .participation = 1.0f};
  CostMeter cost;
  Rng rng(5);
  std::set<int> seen;
  run_resilient(*f.scratch, nn::state_of(*f.scratch), clients, update, cfg, rng, cost, {},
                [&](int, int client, const nn::ModelState&, const nn::ModelState&) {
                  seen.insert(client);
                });
  EXPECT_EQ(seen.count(3), 0u);
}

TEST(FedAvgTest, AllEmptyThrows) {
  Fixture f;
  std::vector<data::Dataset> clients(2,
                                     data::Dataset(f.tt.train.image_shape(), 3));
  SgdLocalUpdate update(1, 8, 0.1f);
  ResilientConfig cfg{.rounds = 1, .participation = 1.0f};
  CostMeter cost;
  Rng rng(5);
  EXPECT_THROW(
      run_resilient(*f.scratch, nn::state_of(*f.scratch), clients, update, cfg, rng, cost),
      std::invalid_argument);
}

TEST(FedAvgTest, ConfigValidation) {
  Fixture f;
  SgdLocalUpdate update(1, 8, 0.1f);
  CostMeter cost;
  Rng rng(5);
  ResilientConfig bad{.rounds = 1, .participation = 0.0f};
  EXPECT_THROW(
      run_resilient(*f.scratch, nn::state_of(*f.scratch), f.clients, update, bad, rng, cost),
      std::invalid_argument);
}

TEST(FedAvgTest, SingleIdenticalClientActsLikeLocalTraining) {
  // With one client, FedAvg == that client's local result.
  Fixture f;
  SgdLocalUpdate update(3, 8, 0.1f);
  ResilientConfig cfg{.rounds = 1, .participation = 1.0f};
  CostMeter cost;
  Rng rng(5);
  const auto init = nn::state_of(*f.scratch);
  std::vector<data::Dataset> one = {f.clients[0]};
  const auto fed_state = run_resilient(*f.scratch, init, one, update, cfg, rng, cost);

  // Replay manually with the same RNG derivation.
  nn::load_state(*f.scratch, init);
  Rng rng2(5);
  Rng client_rng = rng2.split(0ULL * 100003ULL + 0ULL);
  CostMeter cost2;
  update.run(*f.scratch, f.clients[0], 0, 0, client_rng, cost2);
  const auto manual = nn::state_of(*f.scratch);
  EXPECT_NEAR(nn::l2_norm(nn::subtract(fed_state, manual)), 0.0, 1e-6);
}

TEST(CostMeterTest, Accumulates) {
  CostMeter a, b;
  a.add_training(10);
  a.add_distillation(5);
  a.add_exchange(100, 200);
  b.add_training(1);
  b.rounds = 2;
  b.add_exchange(1, 2);
  a += b;
  EXPECT_EQ(a.sample_grads, 11);
  EXPECT_EQ(a.distill_sample_grads, 5);
  EXPECT_EQ(a.total(), 16);
  EXPECT_EQ(a.rounds, 2);
  EXPECT_EQ(a.bytes_up, 101);
  EXPECT_EQ(a.bytes_down, 202);
  EXPECT_EQ(a.total_bytes(), 303);
}

TEST(FedAvgTest, CommunicationAccounting) {
  Fixture f;
  SgdLocalUpdate update(1, 8, 0.1f);
  ResilientConfig cfg{.rounds = 2, .participation = 1.0f};
  CostMeter cost;
  Rng rng(5);
  run_resilient(*f.scratch, nn::state_of(*f.scratch), f.clients, update, cfg, rng, cost);
  const auto model_bytes = nn::state_bytes(nn::state_of(*f.scratch));
  // 2 rounds x 3 clients, one model up and one down per client per round.
  EXPECT_EQ(cost.bytes_up, 2 * 3 * model_bytes);
  EXPECT_EQ(cost.bytes_down, 2 * 3 * model_bytes);
}

TEST(FedAvgTest, TotalSamples) {
  Fixture f;
  EXPECT_EQ(total_samples(f.clients), 60);
}

}  // namespace
}  // namespace quickdrop::fl
