#include <gtest/gtest.h>

#include <cstring>

#include "nn/convnet.h"

namespace quickdrop::nn {
namespace {

TEST(ConvNetTest, DefaultConfigBuildsAndClassifies) {
  ConvNetConfig cfg;
  Rng rng(1);
  auto net = make_convnet(cfg, rng);
  const auto out = net->forward_tensor(Tensor::zeros({2, 3, 12, 12}));
  EXPECT_EQ(out.shape(), (Shape{2, 10}));
}

TEST(ConvNetTest, ConfigValidation) {
  ConvNetConfig cfg;
  cfg.image_size = 6;  // 6 -> 3 -> cannot halve again at depth 2
  cfg.depth = 2;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.depth = 1;
  EXPECT_NO_THROW(cfg.validate());
  cfg.num_classes = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ConvNetTest, FinalSpatial) {
  ConvNetConfig cfg;
  cfg.image_size = 16;
  cfg.depth = 3;
  EXPECT_EQ(cfg.final_spatial(), 2);
}

TEST(ConvNetTest, DepthControlsLayerCount) {
  ConvNetConfig cfg;
  cfg.image_size = 16;
  cfg.depth = 3;
  Rng rng(1);
  auto net = make_convnet(cfg, rng);
  // 3 blocks of 4 layers + flatten + linear.
  EXPECT_EQ(net->size(), 3u * 4u + 2u);
}

TEST(ConvNetTest, DifferentSeedsGiveDifferentInit) {
  ConvNetConfig cfg;
  Rng rng1(1), rng2(2);
  auto a = make_convnet(cfg, rng1);
  auto b = make_convnet(cfg, rng2);
  const auto pa = a->parameters()[0].value();
  const auto pb = b->parameters()[0].value();
  bool any_diff = false;
  for (std::int64_t i = 0; i < pa.numel(); ++i) any_diff = any_diff || pa.at(i) != pb.at(i);
  EXPECT_TRUE(any_diff);
}

TEST(ConvNetTest, SameSeedReproducible) {
  ConvNetConfig cfg;
  Rng rng1(5), rng2(5);
  auto a = make_convnet(cfg, rng1);
  auto b = make_convnet(cfg, rng2);
  const auto pa = a->parameters()[0].value();
  const auto pb = b->parameters()[0].value();
  for (std::int64_t i = 0; i < pa.numel(); ++i) EXPECT_FLOAT_EQ(pa.at(i), pb.at(i));
}

TEST(MlpTest, ShapeAndParams) {
  Rng rng(1);
  auto mlp = make_mlp(3, 8, 2, rng);
  EXPECT_EQ(mlp->forward_tensor(Tensor::zeros({5, 3})).shape(), (Shape{5, 2}));
  EXPECT_EQ(mlp->num_parameters(), 3 * 8 + 8 + 8 * 2 + 2);
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

/// predict() is the graph-free forward: the logits of forward_tensor, bit
/// for bit, with no graph behind them.
void expect_predict_matches_forward(Module& model, const Tensor& x) {
  const Tensor with_graph = model.forward_tensor(x).value();
  EXPECT_TRUE(bitwise_equal(model.predict(x), with_graph));
  const ag::NoGraphScope no_graph;  // the scope predict runs its forward under
  const ag::Var out = model.forward_tensor(x);
  EXPECT_EQ(out.node()->arity, 0);
  EXPECT_FALSE(out.requires_grad());
}

TEST(PredictTest, ConvNetLogitsMatchForwardBitwise) {
  Rng rng(4);
  ConvNetConfig cfg;
  cfg.in_channels = 3;
  cfg.image_size = 8;
  cfg.width = 8;
  cfg.depth = 2;
  auto net = make_convnet(cfg, rng);
  expect_predict_matches_forward(*net, Tensor::randn({5, 3, 8, 8}, rng));
}

TEST(PredictTest, MlpLogitsMatchForwardBitwise) {
  Rng rng(6);
  auto mlp = make_mlp(3, 8, 2, rng);
  expect_predict_matches_forward(*mlp, Tensor::randn({7, 3}, rng));
}

}  // namespace
}  // namespace quickdrop::nn
