// Checkpoint persistence through the crash-safe store: store-backed
// round-trips, round-over-round dedup, latest-record lookup, and
// load_checkpoint(path) reading store files while refusing every other file
// untouched.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "data/synthetic.h"
#include "nn/convnet.h"
#include "store/store.h"

namespace quickdrop::core {
namespace {

std::string temp_path(const char* name) {
  const std::string path = ::testing::TempDir() + "qd_cpstore_" + name;
  std::remove(path.c_str());
  return path;
}

struct Fixture {
  data::TrainTest tt;
  std::vector<SyntheticStore> stores;
  nn::ModelState global;

  Fixture() : tt(make_data()) {
    Rng rng(3);
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

/// Bitwise checkpoint equality through the canonical serialization.
void expect_checkpoints_identical(const Checkpoint& a, const Checkpoint& b) {
  EXPECT_EQ(serialize_checkpoint(a), serialize_checkpoint(b));
}

TEST(CheckpointStoreTest, StoreRoundTripIsBitwiseIdentical) {
  Fixture f;
  auto cp = make_checkpoint(f.global, f.stores);
  cp.metadata["dataset"] = "mini";
  const auto hash = checkpoint_layout_hash(cp);
  ASSERT_NE(hash, 0u);
  const auto path = temp_path("roundtrip.qds");
  store::Store store(path);
  save_checkpoint(cp, store, 7);
  expect_checkpoints_identical(cp, load_checkpoint(store, hash, 7));
  // Survives reopen (i.e. it was committed, not merely staged).
  store::Store reopened(path);
  expect_checkpoints_identical(cp, load_checkpoint(reopened, hash, 7));
}

TEST(CheckpointStoreTest, RoundOverRoundSavesDedupUnchangedPages) {
  Fixture f;
  const auto cp = make_checkpoint(f.global, f.stores);
  const auto path = temp_path("dedup.qds");
  store::Store store(path);
  save_checkpoint(cp, store, 1);
  const auto first = store.stats();
  for (std::uint64_t round = 2; round <= 6; ++round) save_checkpoint(cp, store, round);
  const auto after = store.stats();
  EXPECT_EQ(after.records, 6u);
  // Identical payloads: six records share one physical copy of the data.
  EXPECT_EQ(after.live_pages, first.live_pages);
  // Each extra round appends only its index snapshot + commit record — zero
  // new data pages.
  EXPECT_LE(after.file_pages - first.file_pages, 5 * 2u);
}

TEST(CheckpointStoreTest, LatestRoundAndLatestCheckpointFindTheNewest) {
  Fixture f;
  auto cp = make_checkpoint(f.global, f.stores);
  const auto hash = checkpoint_layout_hash(cp);
  const auto path = temp_path("latest.qds");
  store::Store store(path);
  EXPECT_FALSE(latest_checkpoint_round(store, hash).has_value());
  EXPECT_THROW((void)load_latest_checkpoint(store), store::StoreError);
  save_checkpoint(cp, store, 3);
  cp.metadata["round"] = "12";
  save_checkpoint(cp, store, 12);
  const auto round = latest_checkpoint_round(store, hash);
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(*round, 12u);
  const auto latest = load_latest_checkpoint(store);
  EXPECT_EQ(latest.metadata.at("round"), "12");
  expect_checkpoints_identical(cp, latest);
}

TEST(CheckpointStoreTest, LoadCheckpointReadsStoreFilesAndRefusesOthers) {
  Fixture f;
  const auto cp = make_checkpoint(f.global, f.stores);
  // A store file at `path` loads its latest committed record...
  const auto store_path = temp_path("load.qds");
  {
    store::Store store(store_path);
    save_checkpoint(cp, store, 4);
  }
  expect_checkpoints_identical(cp, load_checkpoint(store_path));
  // ...and any other file throws without being opened as a store, which
  // would overwrite it at the first commit: a bare serialized checkpoint and
  // an empty file keep their exact bytes.
  const auto blob = serialize_checkpoint(cp);
  for (const auto& bytes : {blob, std::vector<std::uint8_t>{}}) {
    const auto path = temp_path("load.blob");
    {
      std::ofstream out(path, std::ios::binary);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_THROW(load_checkpoint(path), store::StoreError);
    std::ifstream in(path, std::ios::binary);
    const std::vector<std::uint8_t> after{std::istreambuf_iterator<char>(in), {}};
    EXPECT_EQ(after, bytes);
  }
}

}  // namespace
}  // namespace quickdrop::core
