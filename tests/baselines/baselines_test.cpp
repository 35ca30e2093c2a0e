// Tests every unlearning method on a miniature federation: each must erase
// the target's accuracy while keeping the retain accuracy useful.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "baselines/federaser.h"
#include "baselines/fump.h"
#include "baselines/quickdrop_method.h"
#include "baselines/registry.h"
#include "baselines/simple_methods.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "metrics/evaluate.h"
#include "nn/convnet.h"

namespace quickdrop::baselines {
namespace {

struct MiniWorld {
  TrainedFederation fed;
  std::unique_ptr<nn::Module> eval_model;

  MiniWorld() : fed(build()) { eval_model = fed.factory(); }

  static TrainedFederation build() {
    data::SyntheticSpec spec;
    spec.num_classes = 4;
    spec.channels = 1;
    spec.image_size = 8;
    spec.train_per_class = 40;
    spec.test_per_class = 10;
    spec.noise = 0.35f;
    spec.seed = 41;
    auto tt = data::make_synthetic(spec);
    Rng prng(13);
    auto clients =
        data::materialize(tt.train, data::dirichlet_partition(tt.train, 4, 0.5f, prng));
    nn::ConvNetConfig net;
    net.in_channels = 1;
    net.image_size = 8;
    net.num_classes = 4;
    net.width = 12;
    net.depth = 1;
    auto shared_rng = std::make_shared<Rng>(23);
    fl::ModelFactory factory = [shared_rng, net] { return nn::make_convnet(net, *shared_rng); };

    HarnessConfig hcfg;
    hcfg.quickdrop.fl_rounds = 20;
    hcfg.quickdrop.local_steps = 6;
    hcfg.quickdrop.batch_size = 16;
    hcfg.quickdrop.train_lr = 0.1f;
    hcfg.quickdrop.scale = 10;
    hcfg.quickdrop.unlearn_lr = 0.05f;
    hcfg.quickdrop.recover_lr = 0.05f;
    hcfg.eraser_interval = 2;
    return train_federation(factory, std::move(clients), std::move(tt.test), hcfg);
  }

  BaselineConfig config() const {
    BaselineConfig cfg;
    cfg.train_lr = 0.1f;
    cfg.unlearn_lr = 0.05f;
    cfg.recover_lr = 0.05f;
    cfg.relearn_lr = 0.05f;  // proportional to the fixture's high train lr
    cfg.local_steps = 6;
    cfg.batch_size = 16;
    cfg.retrain_rounds = 20;
    // The tiny ConvNet has one conv block, so FU-MP must prune aggressively
    // to silence a class.
    cfg.fump_prune_ratio = 0.5f;
    cfg.fump_recovery_rounds = 4;
    return cfg;
  }

  /// The class the trained model knows best — the meaningful unlearning
  /// target on a tiny non-IID federation.
  int best_class() {
    nn::load_state(*eval_model, fed.global);
    const auto pc = metrics::per_class_accuracy(*eval_model, fed.test);
    return static_cast<int>(std::max_element(pc.begin(), pc.end()) - pc.begin());
  }

  double acc_class(const nn::ModelState& s, int c) {
    nn::load_state(*eval_model, s);
    return metrics::accuracy_on_classes(*eval_model, fed.test, {c});
  }
  double acc_excluding(const nn::ModelState& s, int c) {
    nn::load_state(*eval_model, s);
    return metrics::accuracy_excluding_classes(*eval_model, fed.test, {c});
  }
};

TEST(HarnessTest, TrainedModelIsAccurate) {
  MiniWorld w;
  nn::load_state(*w.eval_model, w.fed.global);
  EXPECT_GT(metrics::accuracy(*w.eval_model, w.fed.test), 0.7);
}

TEST(HarnessTest, HistoryRecorded) {
  MiniWorld w;
  const auto& h = w.fed.history;
  EXPECT_EQ(h.rounds.size(), 10u);  // rounds 0,2,...,18 at interval 2
  EXPECT_EQ(h.rounds.front(), 0);
  ASSERT_EQ(h.updates.size(), h.rounds.size());
  for (const auto& round : h.updates) {
    EXPECT_EQ(round.size(), 4u);
    for (const auto& u : round) EXPECT_FALSE(u.empty());
  }
  EXPECT_GT(h.byte_size(), 0);
}

TEST(HarnessTest, OriginalSplitsClassLevel) {
  MiniWorld w;
  const auto req = core::UnlearningRequest::for_class(2);
  const auto forget = original_forget(w.fed, req);
  const auto retain = original_retain(w.fed, req);
  for (std::size_t i = 0; i < forget.size(); ++i) {
    for (int r = 0; r < forget[i].size(); ++r) EXPECT_EQ(forget[i].label(r), 2);
    for (int r = 0; r < retain[i].size(); ++r) EXPECT_NE(retain[i].label(r), 2);
    EXPECT_EQ(forget[i].size() + retain[i].size(), w.fed.client_train()[i].size());
  }
}

TEST(HarnessTest, OriginalSplitsClientLevel) {
  MiniWorld w;
  const auto req = core::UnlearningRequest::for_client(1);
  const auto forget = original_forget(w.fed, req);
  const auto retain = original_retain(w.fed, req);
  EXPECT_EQ(forget[1].size(), w.fed.client_train()[1].size());
  EXPECT_EQ(retain[1].size(), 0);
  EXPECT_EQ(forget[0].size(), 0);
  EXPECT_EQ(retain[0].size(), w.fed.client_train()[0].size());
}

class ClassMethodSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(ClassMethodSweep, ErasesClassKeepsRest) {
  MiniWorld w;
  auto method = make_method(GetParam(), w.config());
  ASSERT_TRUE(method->supports(core::UnlearningRequest::Kind::kClass));
  const int target = w.best_class();
  const double rset_before = w.acc_excluding(w.fed.global, target);
  ASSERT_GT(w.acc_class(w.fed.global, target), 0.5);

  const auto out = method->unlearn(w.fed, core::UnlearningRequest::for_class(target));
  EXPECT_LT(w.acc_class(out.state, target), 0.3) << GetParam();
  EXPECT_GT(w.acc_excluding(out.state, target), rset_before - 0.3) << GetParam();
  EXPECT_GT(out.unlearn.seconds, 0.0);
  EXPECT_GT(out.unlearn.data_size, 0);
}

INSTANTIATE_TEST_SUITE_P(AllClassMethods, ClassMethodSweep,
                         ::testing::Values("Retrain-Or", "SGA-Or", "FedEraser", "FU-MP",
                                           "QuickDrop"));

TEST(S2UTest, ClientUnlearningOnly) {
  MiniWorld w;
  S2U s2u(w.config());
  EXPECT_FALSE(s2u.supports(core::UnlearningRequest::Kind::kClass));
  EXPECT_THROW(s2u.unlearn(w.fed, core::UnlearningRequest::for_class(0)),
               std::invalid_argument);
  const auto out = s2u.unlearn(w.fed, core::UnlearningRequest::for_client(0));
  nn::load_state(*w.eval_model, out.state);
  EXPECT_GT(metrics::accuracy(*w.eval_model, w.fed.test), 0.5);
}

TEST(FuMpTest, PruningZerosChannels) {
  MiniWorld w;
  FuMp fump(w.config());
  const auto out = fump.unlearn(w.fed, core::UnlearningRequest::for_class(1));
  // The after_unlearn state must contain at least one all-zero conv filter
  // row in the last conv layer (the first parameter tensor here, depth 1).
  const Tensor weight = out.after_unlearn.tensor(0);  // conv weight [F, C*k*k]
  int zero_rows = 0;
  const std::int64_t rows = weight.dim(0), cols = weight.dim(1);
  for (std::int64_t r = 0; r < rows; ++r) {
    bool all_zero = true;
    for (std::int64_t c = 0; c < cols && all_zero; ++c) all_zero = weight.at(r * cols + c) == 0.0f;
    zero_rows += all_zero;
  }
  EXPECT_GE(zero_rows, 1);
}

TEST(FuMpTest, ChannelScoresShape) {
  MiniWorld w;
  auto model = w.fed.factory();
  nn::load_state(*model, w.fed.global);
  const auto scores = FuMp::channel_scores(*model, w.fed, 8);
  ASSERT_EQ(scores.size(), 4u);
  EXPECT_EQ(scores[0].size(), 12u);  // one score per conv channel (width 12)
}

TEST(FuMpTest, CannotRelearn) {
  MiniWorld w;
  FuMp fump(w.config());
  EXPECT_FALSE(fump.supports_relearning());
  EXPECT_THROW(fump.relearn(w.fed, w.fed.global, core::UnlearningRequest::for_class(0), nullptr),
               std::logic_error);
}

TEST(RelearnTest, DefaultRelearnRestores) {
  MiniWorld w;
  SgaOriginal sga(w.config());
  const int target = w.best_class();
  const double before = w.acc_class(w.fed.global, target);
  const auto out = sga.unlearn(w.fed, core::UnlearningRequest::for_class(target));
  ASSERT_LT(w.acc_class(out.state, target), 0.3);
  StageReport report;
  const auto relearned =
      sga.relearn(w.fed, out.state, core::UnlearningRequest::for_class(target), &report);
  EXPECT_GT(w.acc_class(relearned, target), before - 0.35);
  EXPECT_GT(report.data_size, 0);
}

TEST(QuickDropMethodTest, RelearnUsesSyntheticData) {
  MiniWorld w;
  QuickDropMethod qd(w.config());
  const auto out = qd.unlearn(w.fed, core::UnlearningRequest::for_class(1));
  StageReport report;
  qd.relearn(w.fed, out.state, core::UnlearningRequest::for_class(1), &report);
  // Synthetic forget set is far smaller than the original class data.
  const auto original = original_forget(w.fed, core::UnlearningRequest::for_class(1));
  EXPECT_LT(report.data_size, fl::total_samples(original));
}

TEST(QuickDropMethodTest, AfterUnlearnIsTheStateAfterTheLastSgaRound) {
  // With a near-zero learning rate, verified SGA exhausts its cap; with no
  // recovery rounds, the state after SGA is the final state.
  MiniWorld w;
  auto cfg = w.fed.quickdrop->config();
  cfg.recovery_rounds = 0;
  cfg.unlearn_lr = 1e-6f;
  cfg.max_unlearn_rounds = 3;
  auto verified = std::make_shared<core::QuickDrop>(w.fed.factory, w.fed.client_train(), cfg, 1);
  verified->load_stores(w.fed.quickdrop->stores());
  w.fed.quickdrop = verified;
  const auto out =
      QuickDropMethod(w.config()).unlearn(w.fed, core::UnlearningRequest::for_class(1));
  EXPECT_EQ(out.unlearn.rounds, 3);
  ASSERT_EQ(out.after_unlearn.numel(), out.state.numel());
  EXPECT_EQ(std::memcmp(out.after_unlearn.data().data(), out.state.data().data(),
                        out.state.data().size_bytes()),
            0);
}

TEST(RegistryTest, NamesAndErrors) {
  const auto names = all_method_names();
  EXPECT_EQ(names.size(), 6u);
  EXPECT_EQ(names.back(), "QuickDrop");
  BaselineConfig cfg;
  for (const auto& n : names) EXPECT_EQ(make_method(n, cfg)->name(), n);
  EXPECT_THROW(make_method("nope", cfg), std::invalid_argument);
}

TEST(RegistryTest, MethodsForKindFilters) {
  BaselineConfig cfg;
  const auto class_methods = methods_for(core::UnlearningRequest::Kind::kClass, cfg);
  for (const auto& m : class_methods) EXPECT_NE(m->name(), "S2U");
  const auto client_methods = methods_for(core::UnlearningRequest::Kind::kClient, cfg);
  for (const auto& m : client_methods) EXPECT_NE(m->name(), "FU-MP");
}

}  // namespace
}  // namespace quickdrop::baselines
