// Shared miniature federation for the net/ test suites: same shape as the
// one in tests/serve/service_test.cpp (4 classes, 4 dirichlet clients, width
// 12, seeds 7/19/99) so identity results carry across suites.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/quickdrop.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "nn/convnet.h"
#include "util/thread_pool.h"

namespace quickdrop::net::testing {

struct ThreadGuard {
  int saved = num_threads();
  ~ThreadGuard() { set_num_threads(saved); }
};

inline data::TrainTest make_mini_data() {
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

/// A fresh federation per run: the factory's shared RNG must start at the
/// same point for every run under comparison.
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

}  // namespace quickdrop::net::testing
