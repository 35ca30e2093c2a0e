#include <gtest/gtest.h>

#include "nn/convnet.h"
#include "nn/optimizer.h"
#include "nn/state.h"
#include "weighted_average_oracle.h"

namespace quickdrop::nn {
namespace {

TEST(SgdTest, DescentAndAscentDirections) {
  auto p = ag::Var::leaf(Tensor({2}, {1.0f, 2.0f}));
  Sgd opt({p}, 0.5f);
  const std::vector<Tensor> grads = {Tensor({2}, {2.0f, -4.0f})};
  opt.step_tensors(grads, UpdateDirection::kDescent);
  EXPECT_FLOAT_EQ(p.value().at(0), 0.0f);
  EXPECT_FLOAT_EQ(p.value().at(1), 4.0f);
  opt.step_tensors(grads, UpdateDirection::kAscent);
  EXPECT_FLOAT_EQ(p.value().at(0), 1.0f);
  EXPECT_FLOAT_EQ(p.value().at(1), 2.0f);
}

TEST(SgdTest, RejectsBadArguments) {
  auto p = ag::Var::leaf(Tensor({2}));
  EXPECT_THROW(Sgd({p}, 0.0f), std::invalid_argument);
  EXPECT_THROW(Sgd({p}, 0.1f, 1.0f), std::invalid_argument);
  EXPECT_THROW(Sgd({p}, 0.1f, -0.1f), std::invalid_argument);
  Sgd opt({p}, 0.1f);
  EXPECT_THROW(opt.step_tensors({}, UpdateDirection::kDescent), std::invalid_argument);
}

TEST(SgdTest, MomentumAccumulatesVelocity) {
  auto p = ag::Var::leaf(Tensor({1}, {0.0f}));
  Sgd opt({p}, 1.0f, 0.5f);
  const std::vector<Tensor> g = {Tensor({1}, {1.0f})};
  opt.step_tensors(g);  // v=1, p=-1
  EXPECT_FLOAT_EQ(p.value().item(), -1.0f);
  opt.step_tensors(g);  // v=1.5, p=-2.5
  EXPECT_FLOAT_EQ(p.value().item(), -2.5f);
  opt.step_tensors(g);  // v=1.75, p=-4.25
  EXPECT_FLOAT_EQ(p.value().item(), -4.25f);
}

TEST(SgdTest, ZeroMomentumMatchesPlain) {
  auto a = ag::Var::leaf(Tensor({1}, {1.0f}));
  auto b = ag::Var::leaf(Tensor({1}, {1.0f}));
  Sgd plain({a}, 0.3f);
  Sgd with_zero({b}, 0.3f, 0.0f);
  const std::vector<Tensor> g = {Tensor({1}, {2.0f})};
  for (int i = 0; i < 3; ++i) {
    plain.step_tensors(g);
    with_zero.step_tensors(g);
  }
  EXPECT_FLOAT_EQ(a.value().item(), b.value().item());
}

TEST(StateTest, SaveLoadRoundTrip) {
  ConvNetConfig cfg;
  cfg.width = 4;
  cfg.depth = 1;
  Rng rng(1);
  auto a = make_convnet(cfg, rng);
  auto b = make_convnet(cfg, rng);  // different init
  const auto sa = state_of(*a);
  load_state(*b, sa);
  const auto sb = state_of(*b);
  ASSERT_EQ(sa.numel(), sb.numel());
  for (std::int64_t i = 0; i < sa.numel(); ++i) EXPECT_FLOAT_EQ(sa.at(i), sb.at(i));
}

TEST(StateTest, StateIsDeepCopy) {
  ConvNetConfig cfg;
  cfg.width = 4;
  cfg.depth = 1;
  Rng rng(1);
  auto model = make_convnet(cfg, rng);
  auto state = state_of(*model);
  const float before = state.at(0);
  model->parameters()[0].mutable_value().at(0) = before + 42.0f;
  EXPECT_FLOAT_EQ(state.at(0), before);
}

TEST(StateTest, Arithmetic) {
  const Tensor t0({2}, {1, 2}), t1({1}, {3});
  auto a = FlatState::from_tensors(std::vector<Tensor>{t0, t1});
  auto b = FlatState::from_tensors(
      std::vector<Tensor>{Tensor({2}, {10, 20}), Tensor({1}, {30})});
  axpy(a, b, 0.1f);
  EXPECT_FLOAT_EQ(a.at(0), 2.0f);
  EXPECT_FLOAT_EQ(a.at(2), 6.0f);
  scale(a, 2.0f);
  EXPECT_FLOAT_EQ(a.at(1), 8.0f);
  const auto d = subtract(b, a);
  EXPECT_FLOAT_EQ(d.at(0), 6.0f);
  EXPECT_EQ(state_numel(a), 3);
  EXPECT_EQ(state_bytes(a), 12);
}

TEST(StateTest, L2Norm) {
  const auto s = FlatState::from_tensors(std::vector<Tensor>{Tensor({2}, {3, 4})});
  EXPECT_NEAR(l2_norm(s), 5.0, 1e-6);
}

TEST(StateTest, WeightedAverage) {
  const auto a = FlatState::from_tensors(std::vector<Tensor>{Tensor({1}, {0.0f})});
  const auto b = FlatState::from_tensors(std::vector<Tensor>{Tensor({1}, {10.0f})});
  const std::vector<ModelState> states = {a, b};
  const std::vector<float> weights = {0.25f, 0.75f};
  const auto avg = oracle::weighted_average(states, weights);
  EXPECT_FLOAT_EQ(avg.at(0), 7.5f);
}

TEST(StateTest, WeightedAverageValidation) {
  const std::vector<ModelState> states;
  const std::vector<float> weights;
  EXPECT_THROW(oracle::weighted_average(states, weights), std::invalid_argument);
}

TEST(StateTest, SerializeRoundTrip) {
  const auto s = FlatState::from_tensors(
      std::vector<Tensor>{Tensor({2, 2}, {1, -2, 3.5f, 0}), Tensor({3}, {9, 8, 7})});
  const auto bytes = serialize_state(s);
  const auto back = deserialize_state(bytes);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back.layout()->shape(0), (Shape{2, 2}));
  EXPECT_EQ(back.layout()->shape(1), (Shape{3}));
  EXPECT_EQ(back.layout()->hash(), s.layout()->hash());
  ASSERT_EQ(back.numel(), s.numel());
  for (std::int64_t i = 0; i < s.numel(); ++i) EXPECT_FLOAT_EQ(back.at(i), s.at(i));
}

TEST(StateTest, DeserializeRejectsTruncated) {
  const auto s = FlatState::from_tensors(std::vector<Tensor>{Tensor({2}, {1, 2})});
  auto bytes = serialize_state(s);
  bytes.pop_back();
  EXPECT_THROW(deserialize_state(bytes), std::invalid_argument);
}

TEST(StateTest, LoadRejectsMismatch) {
  ConvNetConfig cfg;
  cfg.width = 4;
  cfg.depth = 1;
  Rng rng(1);
  auto model = make_convnet(cfg, rng);
  const auto wrong = FlatState::from_tensors(std::vector<Tensor>{Tensor({1})});
  EXPECT_THROW(load_state(*model, wrong), std::invalid_argument);
}

}  // namespace
}  // namespace quickdrop::nn
