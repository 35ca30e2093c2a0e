#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>

#include "core/checkpoint.h"
#include "core/quickdrop.h"
#include "data/synthetic.h"
#include "nn/convnet.h"
#include "store/store.h"

namespace quickdrop::core {
namespace {

struct Fixture {
  data::TrainTest tt;
  std::vector<SyntheticStore> stores;
  nn::ModelState global;

  Fixture() : tt(make_data()) {
    Rng rng(3);
    // Client 0 has all classes; client 1 misses class 0.
    stores.emplace_back(tt.train, 10, rng);
    std::vector<int> rows;
    for (int i = 0; i < tt.train.size(); ++i) {
      if (tt.train.label(i) != 0) rows.push_back(i);
    }
    stores.emplace_back(tt.train.subset(rows), 10, rng);
    nn::ConvNetConfig cfg;
    cfg.in_channels = 1;
    cfg.image_size = 8;
    cfg.width = 4;
    cfg.depth = 1;
    cfg.num_classes = 3;
    Rng mrng(5);
    auto model = nn::make_convnet(cfg, mrng);
    global = nn::state_of(*model);
  }

  static data::TrainTest make_data() {
    data::SyntheticSpec spec;
    spec.num_classes = 3;
    spec.channels = 1;
    spec.image_size = 8;
    spec.train_per_class = 20;
    spec.test_per_class = 2;
    spec.seed = 61;
    return data::make_synthetic(spec);
  }
};

void expect_stores_equal(const SyntheticStore& a, const SyntheticStore& b) {
  ASSERT_EQ(a.num_classes(), b.num_classes());
  ASSERT_EQ(a.image_shape(), b.image_shape());
  for (int c = 0; c < a.num_classes(); ++c) {
    ASSERT_EQ(a.has_class(c), b.has_class(c)) << "class " << c;
    if (!a.has_class(c)) continue;
    const auto& ta = a.class_samples(c);
    const auto& tb = b.class_samples(c);
    ASSERT_EQ(ta.shape(), tb.shape());
    for (std::int64_t i = 0; i < ta.numel(); ++i) EXPECT_FLOAT_EQ(ta.at(i), tb.at(i));
  }
}

/// Writes `cp` as the one record of a fresh store file at `path`.
void save_store_file(const Checkpoint& cp, const std::string& path) {
  std::remove(path.c_str());
  store::Store store(path);
  save_checkpoint(cp, store, 1);
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CheckpointTest, MetadataRoundTrip) {
  Fixture f;
  auto cp = make_checkpoint(f.global, f.stores);
  cp.metadata = {{"dataset", "cifar10"}, {"clients", "10"}, {"note", "hello world"}};
  const auto back = deserialize_checkpoint(serialize_checkpoint(cp));
  EXPECT_EQ(back.metadata, cp.metadata);
}

TEST(CheckpointTest, EmptyMetadataRoundTrip) {
  Fixture f;
  const auto cp = make_checkpoint(f.global, f.stores);
  const auto back = deserialize_checkpoint(serialize_checkpoint(cp));
  EXPECT_TRUE(back.metadata.empty());
}

TEST(CheckpointTest, SerializeRoundTrip) {
  Fixture f;
  const auto cp = make_checkpoint(f.global, f.stores);
  const auto bytes = serialize_checkpoint(cp);
  const auto back = deserialize_checkpoint(bytes);
  ASSERT_EQ(back.global.size(), f.global.size());
  ASSERT_EQ(back.global.numel(), f.global.numel());
  EXPECT_EQ(back.global.layout()->hash(), f.global.layout()->hash());
  for (std::int64_t j = 0; j < f.global.numel(); ++j) {
    EXPECT_FLOAT_EQ(back.global.at(j), f.global.at(j));
  }
  const auto stores = restore_stores(back);
  ASSERT_EQ(stores.size(), 2u);
  expect_stores_equal(stores[0], f.stores[0]);
  expect_stores_equal(stores[1], f.stores[1]);
}

TEST(CheckpointTest, AbsentClassSurvivesRoundTrip) {
  Fixture f;
  const auto cp = make_checkpoint(f.global, f.stores);
  const auto stores = restore_stores(deserialize_checkpoint(serialize_checkpoint(cp)));
  EXPECT_FALSE(stores[1].has_class(0));
  EXPECT_TRUE(stores[1].has_class(1));
}

TEST(CheckpointTest, AugmentationSurvivesRoundTrip) {
  Fixture f;
  const auto cp = make_checkpoint(f.global, f.stores);
  const auto stores = restore_stores(deserialize_checkpoint(serialize_checkpoint(cp)));
  const auto before = f.stores[0].augmentation({1});
  const auto after = stores[0].augmentation({1});
  ASSERT_EQ(before.size(), after.size());
  for (int i = 0; i < before.size(); ++i) {
    const auto a = before.image(i), b = after.image(i);
    for (std::int64_t j = 0; j < a.numel(); ++j) EXPECT_FLOAT_EQ(a.at(j), b.at(j));
  }
}

TEST(CheckpointTest, RejectsCorruptInput) {
  Fixture f;
  auto bytes = serialize_checkpoint(make_checkpoint(f.global, f.stores));
  EXPECT_THROW(deserialize_checkpoint(std::span(bytes.data(), bytes.size() - 3)),
               std::invalid_argument);
  bytes[0] ^= 0xFF;  // break the magic
  EXPECT_THROW(deserialize_checkpoint(bytes), std::invalid_argument);
}

TEST(CheckpointTest, TruncationDetectedAtAnyLength) {
  // A partially written file (killed process, full disk) must never parse.
  Fixture f;
  const auto bytes = serialize_checkpoint(make_checkpoint(f.global, f.stores));
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{8}, std::size_t{15}, std::size_t{16}, bytes.size() / 4,
        bytes.size() / 2, bytes.size() - 8, bytes.size() - 1}) {
    EXPECT_THROW(deserialize_checkpoint(std::span(bytes.data(), keep)), std::invalid_argument)
        << "prefix of " << keep << " bytes parsed";
  }
}

TEST(CheckpointTest, BitFlipAnywhereDetected) {
  // Bit flips inside the float payload are valid floats, so only the
  // trailing checksum can catch them.
  Fixture f;
  const auto original = serialize_checkpoint(make_checkpoint(f.global, f.stores));
  for (const std::size_t pos : {std::size_t{3}, original.size() / 3, original.size() / 2,
                                original.size() - 20, original.size() - 1}) {
    auto bytes = original;
    bytes[pos] ^= 0x10;
    EXPECT_THROW(deserialize_checkpoint(bytes), std::invalid_argument)
        << "flip at byte " << pos << " parsed";
  }
  EXPECT_NO_THROW(deserialize_checkpoint(original));
}

// A checkpoint with an empty global, no clients and no cursor, its client
// count replaced by `clients_section`, then sealed with a valid FNV-1a
// trailer so only the decoder's own bounds checks stand between the bytes
// and the allocator.
std::vector<std::uint8_t> crafted_checkpoint(std::initializer_list<std::uint64_t> clients_section) {
  auto bytes = serialize_checkpoint(Checkpoint{});
  bytes.resize(bytes.size() - 24);  // client count, cursor flag, checksum
  const auto put = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  for (const auto v : clients_section) put(v);
  put(0);  // no cursor
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  put(h);
  return bytes;
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

TEST(CheckpointTest, CraftedShapesThrowBeforeAllocating) {
  // With no clients the crafted bytes decode, so each rejection below comes
  // from the shape it declares.
  EXPECT_TRUE(deserialize_checkpoint(crafted_checkpoint({0})).clients.empty());
  const std::uint64_t big_rank = std::uint64_t{1} << 40;
  const std::uint64_t big_dim = std::uint64_t{1} << 28;  // 1 GiB of floats
  const std::uint64_t huge_dim = std::uint64_t{1} << 32;
  const std::vector<std::vector<std::uint8_t>> inputs = {
      // clients, classes, image rank
      crafted_checkpoint({1, 1, big_rank}),
      // clients, classes, image rank 0, synthetic [2^28], augmentation [0]
      crafted_checkpoint({1, 1, 0, 1, big_dim, 1, 0}),
      // the numel of a [2^32, 2^32] synthetic tensor overflows int64
      crafted_checkpoint({1, 1, 0, 2, huge_dim, huge_dim, 1, 0}),
  };
  const long before_kb = peak_rss_kb();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_THROW(deserialize_checkpoint(inputs[i]), std::invalid_argument) << "input " << i;
  }
  // None of the inputs is more than a few hundred bytes, so none may drive an
  // allocation anywhere near the 1 GiB its shape declares.
  EXPECT_LT(peak_rss_kb() - before_kb, 64 * 1024) << "decoder allocated before validating";
}

TEST(CheckpointTest, LoadCorruptFileThrows) {
  // A truncated or bit-flipped one-record store holds no commit that
  // verifies, so loading it throws; it never returns other bits.
  Fixture f;
  const std::string path = testing::TempDir() + "/qd_checkpoint_corrupt.qdcp";
  save_store_file(make_checkpoint(f.global, f.stores), path);
  const auto bytes = read_file(path);
  ASSERT_EQ(bytes.size() % store::kPageSize, 0u);
  for (std::size_t len = 0; len < bytes.size(); len += store::kPageSize / 2) {
    write_file(path, std::vector<char>(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len)));
    EXPECT_THROW(load_checkpoint(path), store::StoreError) << "truncated to " << len;
  }
  for (std::size_t at = 0; at < bytes.size(); at += 61) {
    auto flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x04);
    write_file(path, flipped);
    EXPECT_THROW(load_checkpoint(path), store::StoreError) << "bit flip at byte " << at;
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, RoundCursorRoundTrip) {
  Fixture f;
  auto cp = make_checkpoint(f.global, f.stores);
  cp.cursor = RoundCursor{.phase = "train", .rounds_done = 7, .rng_state = Rng(55).serialize()};
  const auto back = deserialize_checkpoint(serialize_checkpoint(cp));
  ASSERT_TRUE(back.cursor.has_value());
  EXPECT_EQ(back.cursor->phase, "train");
  EXPECT_EQ(back.cursor->rounds_done, 7);
  EXPECT_EQ(back.cursor->rng_state, cp.cursor->rng_state);
  // The restored RNG continues the exact stream.
  Rng a = Rng::deserialize(back.cursor->rng_state);
  Rng b(55);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(CheckpointTest, CursorlessCheckpointHasNoCursor) {
  Fixture f;
  const auto back = deserialize_checkpoint(serialize_checkpoint(make_checkpoint(f.global, f.stores)));
  EXPECT_FALSE(back.cursor.has_value());
}

TEST(CheckpointTest, CursorWithBadRngStateRejected) {
  Fixture f;
  auto cp = make_checkpoint(f.global, f.stores);
  cp.cursor = RoundCursor{.phase = "train", .rounds_done = 1, .rng_state = {1, 2, 3}};
  EXPECT_THROW(deserialize_checkpoint(serialize_checkpoint(cp)), std::invalid_argument);
}

TEST(CheckpointTest, FileRoundTrip) {
  Fixture f;
  const std::string path = testing::TempDir() + "/qd_checkpoint_test.qdcp";
  const auto cp = make_checkpoint(f.global, f.stores);
  save_store_file(cp, path);
  const auto loaded = load_checkpoint(path);
  EXPECT_EQ(serialize_checkpoint(loaded), serialize_checkpoint(cp));
  const auto stores = restore_stores(loaded);
  expect_stores_equal(stores[0], f.stores[0]);
  std::remove(path.c_str());
}

TEST(CheckpointTest, LoadMissingFileThrows) {
  EXPECT_THROW(load_checkpoint("/nonexistent/qd.bin"), store::StoreError);
  // Loading never creates the file it was asked for.
  const std::string path = testing::TempDir() + "/qd_checkpoint_missing.qdcp";
  std::remove(path.c_str());
  EXPECT_THROW(load_checkpoint(path), store::StoreError);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(CheckpointTest, FromPartsValidation) {
  EXPECT_THROW(SyntheticStore::from_parts({1, 8, 8}, 2, {}, {}), std::invalid_argument);
  std::vector<std::optional<Tensor>> synth(2), aug(2);
  synth[0] = Tensor({3, 2, 8, 8});  // wrong channel count vs image shape
  EXPECT_THROW(
      SyntheticStore::from_parts({1, 8, 8}, 2, std::move(synth), std::move(aug)),
      std::invalid_argument);
}

TEST(CheckpointTest, RestoredDeploymentServesRequestsViaQuickDrop) {
  // Train a tiny federation, checkpoint it, restore into a *fresh* QuickDrop
  // (as after a process restart) and serve an unlearning request.
  data::SyntheticSpec spec;
  spec.num_classes = 3;
  spec.channels = 1;
  spec.image_size = 8;
  spec.train_per_class = 30;
  spec.test_per_class = 10;
  spec.noise = 0.35f;
  spec.seed = 63;
  const auto tt = data::make_synthetic(spec);
  std::vector<data::Dataset> clients = {tt.train.subset([&] {
                                          std::vector<int> rows;
                                          for (int i = 0; i < tt.train.size(); i += 2) rows.push_back(i);
                                          return rows;
                                        }()),
                                        tt.train.subset([&] {
                                          std::vector<int> rows;
                                          for (int i = 1; i < tt.train.size(); i += 2) rows.push_back(i);
                                          return rows;
                                        }())};
  nn::ConvNetConfig net;
  net.in_channels = 1;
  net.image_size = 8;
  net.num_classes = 3;
  net.width = 12;
  net.depth = 1;
  auto shared = std::make_shared<Rng>(65);
  fl::ModelFactory factory = [shared, net] { return nn::make_convnet(net, *shared); };
  QuickDropConfig cfg;
  cfg.fl_rounds = 12;
  cfg.local_steps = 6;
  cfg.batch_size = 16;
  cfg.train_lr = 0.1f;
  cfg.scale = 10;
  cfg.unlearn_lr = 0.05f;
  cfg.recover_lr = 0.05f;

  QuickDrop original(factory, clients, cfg, 66);
  const auto trained = original.train();
  const auto cp = make_checkpoint(trained, original.stores());
  const auto bytes = serialize_checkpoint(cp);

  // "Restart": a fresh coordinator with restored stores — no training.
  QuickDrop restored(factory, clients, cfg, 67);
  const auto loaded = deserialize_checkpoint(bytes);
  restored.load_stores(restore_stores(loaded));
  const auto state = restored.unlearn(loaded.global, UnlearningRequest::for_class(1));

  auto model = factory();
  nn::load_state(*model, state);
  double class1_correct = 0, class1_total = 0;
  for (int i = 0; i < tt.test.size(); ++i) {
    if (tt.test.label(i) != 1) continue;
    ++class1_total;
  }
  ASSERT_GT(class1_total, 0);
  // Evaluate class-1 accuracy directly.
  const auto rows = tt.test.indices_of_class(1);
  auto [images, labels] = tt.test.batch(rows);
  const auto logits = model->forward_tensor(images).value();
  for (std::size_t i = 0; i < labels.size(); ++i) {
    float best = logits.at(static_cast<std::int64_t>(i) * 3);
    int arg = 0;
    for (int c = 1; c < 3; ++c) {
      const float v = logits.at(static_cast<std::int64_t>(i) * 3 + c);
      if (v > best) {
        best = v;
        arg = c;
      }
    }
    class1_correct += arg == 1;
  }
  EXPECT_LT(class1_correct / class1_total, 0.3);
}

TEST(CheckpointTest, LoadStoresRejectsWrongClientCount) {
  Fixture f;
  nn::ConvNetConfig net;
  net.in_channels = 1;
  net.image_size = 8;
  net.num_classes = 3;
  net.width = 4;
  net.depth = 1;
  auto shared = std::make_shared<Rng>(68);
  fl::ModelFactory factory = [shared, net] { return nn::make_convnet(net, *shared); };
  QuickDropConfig cfg;
  QuickDrop qd(factory, {f.tt.train}, cfg, 69);
  EXPECT_THROW(qd.load_stores({}), std::invalid_argument);
}

TEST(CheckpointTest, ResumedTrainingMatchesUninterruptedRun) {
  // Acceptance: kill training after round k, checkpoint (global + stores +
  // RoundCursor), restore into a fresh coordinator and resume — the final
  // global state and synthetic stores match the uninterrupted run bitwise.
  data::SyntheticSpec spec;
  spec.num_classes = 3;
  spec.channels = 1;
  spec.image_size = 8;
  spec.train_per_class = 24;
  spec.test_per_class = 2;
  spec.noise = 0.3f;
  spec.seed = 71;
  const auto tt = data::make_synthetic(spec);
  Rng prng(72);
  std::vector<data::Dataset> clients;
  {
    std::vector<int> even, odd;
    for (int i = 0; i < tt.train.size(); ++i) (i % 2 == 0 ? even : odd).push_back(i);
    clients = {tt.train.subset(even), tt.train.subset(odd)};
  }
  nn::ConvNetConfig net;
  net.in_channels = 1;
  net.image_size = 8;
  net.num_classes = 3;
  net.width = 6;
  net.depth = 1;
  const auto make_factory = [net] {
    auto shared = std::make_shared<Rng>(73);
    return fl::ModelFactory([shared, net] { return nn::make_convnet(net, *shared); });
  };
  QuickDropConfig cfg;
  cfg.fl_rounds = 6;
  cfg.local_steps = 3;
  cfg.batch_size = 16;
  cfg.train_lr = 0.1f;
  cfg.scale = 12;
  {
    fl::FaultRates rates;
    rates.crash = 0.15f;
    cfg.faults = fl::FaultPlan(77, rates);
  }

  QuickDrop uninterrupted(make_factory(), clients, cfg, 74);
  const auto final_full = uninterrupted.train();

  // The "killed" run: checkpoint after round 2 (3 completed rounds).
  QuickDrop killed(make_factory(), clients, cfg, 74);
  std::vector<std::uint8_t> bytes;
  killed.train({}, {},
               [&](int round, const nn::ModelState& g, const Rng& rng) {
                 if (round != 2) return;
                 auto cp = make_checkpoint(g, killed.stores());
                 cp.cursor = RoundCursor{
                     .phase = "train", .rounds_done = round + 1, .rng_state = rng.serialize()};
                 bytes = serialize_checkpoint(cp);
               });
  ASSERT_FALSE(bytes.empty());

  // "Restart": fresh coordinator, restore stores + cursor, resume.
  QuickDrop resumed(make_factory(), clients, cfg, 74);
  const auto loaded = deserialize_checkpoint(bytes);
  ASSERT_TRUE(loaded.cursor.has_value());
  resumed.load_stores(restore_stores(loaded));
  TrainResume resume{.global = loaded.global,
                     .rounds_done = loaded.cursor->rounds_done,
                     .rng_state = loaded.cursor->rng_state};
  const auto final_resumed = resumed.train({}, {}, {}, &resume);

  ASSERT_EQ(final_resumed.size(), final_full.size());
  ASSERT_EQ(final_resumed.numel(), final_full.numel());
  for (std::int64_t j = 0; j < final_full.numel(); ++j) {
    ASSERT_EQ(final_resumed.at(j), final_full.at(j)) << "flat entry " << j;
  }
  // In-situ distillation state must line up too, or later unlearning
  // requests would diverge after a resume.
  for (std::size_t i = 0; i < clients.size(); ++i) {
    expect_stores_equal(resumed.stores()[i], uninterrupted.stores()[i]);
  }
}

TEST(CheckpointTest, TrainRejectsOutOfRangeResumeCursor) {
  Fixture f;
  nn::ConvNetConfig net;
  net.in_channels = 1;
  net.image_size = 8;
  net.num_classes = 3;
  net.width = 4;
  net.depth = 1;
  auto shared = std::make_shared<Rng>(75);
  fl::ModelFactory factory = [shared, net] { return nn::make_convnet(net, *shared); };
  QuickDropConfig cfg;
  cfg.fl_rounds = 2;
  QuickDrop qd(factory, {f.tt.train}, cfg, 76);
  TrainResume resume{.global = qd.initial_state(),
                     .rounds_done = 3,  // > fl_rounds
                     .rng_state = Rng(1).serialize()};
  EXPECT_THROW(qd.train({}, {}, {}, &resume), std::invalid_argument);
}

TEST(CheckpointTest, RestoredStoreServesUnlearningData) {
  Fixture f;
  const auto stores = restore_stores(deserialize_checkpoint(
      serialize_checkpoint(make_checkpoint(f.global, f.stores))));
  const auto forget = stores[0].to_dataset({2});
  EXPECT_EQ(forget.size(), f.stores[0].class_count(2));
  const auto retain = stores[0].augmented_dataset({0, 1});
  EXPECT_EQ(retain.size(),
            2 * (f.stores[0].class_count(0) + f.stores[0].class_count(1)));
}

}  // namespace
}  // namespace quickdrop::core
