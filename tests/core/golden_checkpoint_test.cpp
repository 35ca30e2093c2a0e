// Checkpoint format gate. The committed golden store file holds one
// checkpoint record of a tiny trained deployment (2 clients, 8x8 synthetic
// images, width-12 ConvNet; the evaluation context below rebuilds it). It
// must keep loading and evaluating bitwise-identically to the hexfloat
// metrics recorded in its metadata, and re-saving it under its own key must
// reproduce the file byte for byte, which pins the page, index, commit and
// record formats together. QD_GOLDEN_CHECKPOINT is injected by CMake.
//
// Re-baselining, ONLY after an intentional format change: the re-save test
// writes the file the current code produces to
// <gtest TempDir>/qd_golden_resaved.qdcp; copy that file over the golden.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "data/synthetic.h"
#include "metrics/evaluate.h"
#include "nn/convnet.h"
#include "nn/state.h"
#include "store/store.h"
#include "util/rng.h"

namespace {

using namespace quickdrop;

std::string hex_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string metadata_at(const core::Checkpoint& cp, const std::string& key) {
  const auto it = cp.metadata.find(key);
  EXPECT_NE(it, cp.metadata.end()) << "golden checkpoint lacks metadata key " << key;
  return it == cp.metadata.end() ? std::string() : it->second;
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

/// A scratch copy of the golden to open as a store: recovery may truncate a
/// torn tail, and the committed file must stay exactly as it is.
std::string golden_copy(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::filesystem::copy_file(QD_GOLDEN_CHECKPOINT, path,
                             std::filesystem::copy_options::overwrite_existing);
  return path;
}

TEST(GoldenCheckpoint, StoreFileLoadsAndEvaluatesBitwiseIdentically) {
  const std::string copy = golden_copy("qd_golden_load.qdcp");
  const core::Checkpoint cp = core::load_checkpoint(copy);
  std::remove(copy.c_str());

  ASSERT_EQ(metadata_at(cp, "golden.format"), "v4");
  ASSERT_FALSE(cp.global.empty());
  ASSERT_TRUE(cp.global.layout() != nullptr);
  EXPECT_TRUE(nn::all_finite(cp.global));

  // Rebuild the deployment's evaluation context.
  data::SyntheticSpec spec;
  spec.num_classes = 3;
  spec.channels = 1;
  spec.image_size = 8;
  spec.train_per_class = 30;
  spec.test_per_class = 10;
  spec.noise = 0.35f;
  spec.seed = 63;
  const auto tt = data::make_synthetic(spec);

  nn::ConvNetConfig net;
  net.in_channels = 1;
  net.image_size = 8;
  net.num_classes = 3;
  net.width = 12;
  net.depth = 1;
  Rng rng(65);
  auto model = nn::make_convnet(net, rng);

  // The flat state must carry the layout the current model derives.
  EXPECT_EQ(cp.global.layout()->hash(), nn::StateLayout::of(*model)->hash());
  nn::load_state(*model, cp.global);

  // The recorded hexfloat strings pin the exact bits of every metric. The
  // eval kernels are thread-count invariant, so this holds at any --threads.
  EXPECT_EQ(hex_double(metrics::accuracy(*model, tt.test, 32)),
            metadata_at(cp, "eval.test_accuracy_hex"));
  EXPECT_EQ(hex_double(metrics::mean_loss(*model, tt.test, 32)),
            metadata_at(cp, "eval.test_loss_hex"));
  const auto per_class = metrics::per_class_accuracy(*model, tt.test, 32);
  ASSERT_EQ(per_class.size(), 3u);
  for (std::size_t c = 0; c < per_class.size(); ++c) {
    EXPECT_EQ(hex_double(per_class[c]),
              metadata_at(cp, "eval.class" + std::to_string(c) + "_accuracy_hex"))
        << "class " << c;
  }

  // The synthetic stores must restore too: they are what serves unlearning
  // requests after a restart.
  const auto stores = core::restore_stores(cp);
  ASSERT_EQ(stores.size(), 2u);
  for (const auto& store : stores) EXPECT_GT(store.total_samples(), 0);
}

TEST(GoldenCheckpoint, ResavingTheGoldenIsByteIdentical) {
  const std::string copy = golden_copy("qd_golden_keys.qdcp");
  store::Store golden(copy);
  const auto keys = golden.keys();
  ASSERT_EQ(keys.size(), 1u);
  const store::Key key = keys.front();
  ASSERT_EQ(key.kind, core::kRecordCheckpoint);
  const core::Checkpoint cp = core::deserialize_checkpoint(golden.get(key));
  EXPECT_EQ(core::checkpoint_layout_hash(cp), key.layout_hash);
  std::remove(copy.c_str());

  const std::string resaved = ::testing::TempDir() + "qd_golden_resaved.qdcp";
  std::remove(resaved.c_str());
  {
    store::Store fresh(resaved);
    core::save_checkpoint(cp, fresh, key.cursor);
  }
  EXPECT_TRUE(read_file(resaved) == read_file(QD_GOLDEN_CHECKPOINT))
      << "re-saved golden differs from the committed file; the current bytes are in "
      << resaved;
}

}  // namespace
