// Store engine contracts: durable round-trips, recovery-on-open semantics,
// page-level dedup, vacuum, and the corrupted-byte fuzz sweep (every header
// field and payload byte perturbed => typed error or clean fallback to an
// older committed state — never UB, never garbage data returned).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <unistd.h>

#include "store/store.h"
#include "util/rng.h"

namespace quickdrop::store {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "qd_store_" + name;
  std::remove(path.c_str());
  std::remove((path + ".vacuum").c_str());
  return path;
}

/// Deterministic patterned bytes — every value in these tests is derived
/// from a seed, so corruption is always distinguishable from a stale value.
std::vector<std::uint8_t> pattern(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> out(n);
  Rng rng(seed);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return out;
}

std::map<Key, std::vector<std::uint8_t>> contents_of(Store& store) {
  std::map<Key, std::vector<std::uint8_t>> out;
  for (const auto& key : store.keys()) out[key] = store.get(key);
  return out;
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in.good()) << path;
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::vector<std::uint8_t> bytes(size);
  in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(size));
  return bytes;
}

void dump(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  // Test fixture prep, not product persistence.
  // NOLINTNEXTLINE(qdlint-api-durable-io)
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(StoreTest, PutGetRoundtripsSingleAndMultiPageValues) {
  const auto path = temp_path("roundtrip.qds");
  Store store(path);
  const auto small = pattern(100, 1);
  const auto large = pattern(3 * kPagePayload + 777, 2);  // spans 4 pages
  store.put({10, 1, 0}, small);
  store.put({10, 1, 1}, large);
  store.commit();
  EXPECT_EQ(store.get({10, 1, 0}), small);
  EXPECT_EQ(store.get({10, 1, 1}), large);
  EXPECT_TRUE(store.contains({10, 1, 0}));
  EXPECT_FALSE(store.contains({10, 1, 2}));
  EXPECT_THROW((void)store.get({10, 1, 2}), StoreError);
}

TEST(StoreTest, EmptyValueRoundtrips) {
  const auto path = temp_path("empty.qds");
  {
    Store store(path);
    store.put({1, 1, 0}, {});
    store.commit();
  }
  Store reopened(path);
  EXPECT_TRUE(reopened.contains({1, 1, 0}));
  EXPECT_TRUE(reopened.get({1, 1, 0}).empty());
}

TEST(StoreTest, ReopenRecoversExactlyTheCommittedState) {
  const auto path = temp_path("reopen.qds");
  const auto a = pattern(2 * kPagePayload, 3);
  const auto b = pattern(512, 4);
  {
    Store store(path);
    store.put({7, 1, 1}, a);
    store.put({7, 2, 9}, b);
    store.commit();
    EXPECT_EQ(store.committed_seq(), 1u);
  }
  Store reopened(path);
  EXPECT_EQ(reopened.committed_seq(), 1u);
  EXPECT_EQ(reopened.get({7, 1, 1}), a);
  EXPECT_EQ(reopened.get({7, 2, 9}), b);
  EXPECT_EQ(reopened.keys().size(), 2u);
}

TEST(StoreTest, UncommittedChangesAreLostOnReopenCommittedOnesSurvive) {
  const auto path = temp_path("uncommitted.qds");
  const auto committed = pattern(600, 5);
  {
    Store store(path);
    store.put({1, 1, 0}, committed);
    store.commit();
    store.put({1, 1, 1}, pattern(600, 6));  // staged, never committed
    store.erase({1, 1, 0});                 // also staged, never committed
  }
  Store reopened(path);
  EXPECT_TRUE(reopened.contains({1, 1, 0}));
  EXPECT_EQ(reopened.get({1, 1, 0}), committed);
  EXPECT_FALSE(reopened.contains({1, 1, 1}));
}

TEST(StoreTest, EraseIsDurableAfterCommit) {
  const auto path = temp_path("erase.qds");
  {
    Store store(path);
    store.put({1, 1, 0}, pattern(64, 7));
    store.put({1, 1, 1}, pattern(64, 8));
    store.commit();
    EXPECT_TRUE(store.erase({1, 1, 0}));
    EXPECT_FALSE(store.erase({1, 1, 0}));  // already gone
    store.commit();
  }
  Store reopened(path);
  EXPECT_FALSE(reopened.contains({1, 1, 0}));
  EXPECT_TRUE(reopened.contains({1, 1, 1}));
}

TEST(StoreTest, LatestReturnsHighestCursorPerLayoutAndKind) {
  const auto path = temp_path("latest.qds");
  Store store(path);
  EXPECT_FALSE(store.latest(5, 1).has_value());
  store.put({5, 1, 3}, pattern(16, 9));
  store.put({5, 1, 12}, pattern(16, 10));
  store.put({5, 2, 99}, pattern(16, 11));
  store.put({6, 1, 500}, pattern(16, 12));
  const auto latest = store.latest(5, 1);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->cursor, 12u);
  EXPECT_EQ(store.latest(5, 2)->cursor, 99u);
  EXPECT_EQ(store.latest(6, 1)->cursor, 500u);
  EXPECT_FALSE(store.latest(6, 2).has_value());
}

TEST(StoreTest, IdenticalValuesShareTheirPages) {
  const auto path = temp_path("dedup.qds");
  Store store(path);
  const auto value = pattern(4 * kPagePayload, 13);  // 4 full pages
  store.put({1, 1, 0}, value);
  store.put({1, 1, 1}, value);
  store.put({1, 1, 2}, value);
  store.commit();
  const auto stats = store.stats();
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.live_pages, 4u);  // one physical copy for all three records
  EXPECT_EQ(store.get({1, 1, 2}), value);
}

TEST(StoreTest, UnchangedRecordsDedupAcrossCommits) {
  const auto path = temp_path("dedup_rounds.qds");
  Store store(path);
  const auto value = pattern(6 * kPagePayload, 14);
  store.put({1, 1, 1}, value);
  store.commit();
  const auto pages_after_first = store.stats().file_pages;
  // "Round 2": the same state saved under the next cursor — as when a
  // training run checkpoints every round but nothing changed.
  store.put({1, 1, 2}, value);
  store.commit();
  const auto stats = store.stats();
  EXPECT_EQ(stats.live_pages, 6u);  // still one physical copy
  // The second commit added only index + commit pages, no data pages.
  EXPECT_LE(stats.file_pages - pages_after_first, 2u);
  // Dedup survives reopen (the digest map is rebuilt from live pages).
  Store reopened(path);
  reopened.put({1, 1, 3}, value);
  reopened.commit();
  EXPECT_EQ(reopened.stats().live_pages, 6u);
}

TEST(StoreTest, VacuumReclaimsDeadPagesAndPreservesContents) {
  const auto path = temp_path("vacuum.qds");
  Store store(path);
  for (int version = 0; version < 8; ++version) {
    store.put({1, 1, 0}, pattern(3 * kPagePayload, 100 + static_cast<std::uint64_t>(version)));
    store.commit();
  }
  store.put({1, 2, 5}, pattern(200, 200));
  store.commit();
  const auto before = contents_of(store);
  const auto stats = store.vacuum();
  EXPECT_LT(stats.pages_after, stats.pages_before);
  EXPECT_GT(stats.bytes_reclaimed(), 0);
  EXPECT_EQ(contents_of(store), before);
  // The vacuumed file is a normal store: reopen and keep writing.
  Store reopened(path);
  EXPECT_EQ(contents_of(reopened), before);
  reopened.put({1, 2, 6}, pattern(64, 201));
  reopened.commit();
  EXPECT_TRUE(reopened.contains({1, 2, 6}));
}

TEST(StoreTest, SniffDistinguishesStoreFilesFromBlobsAndMissingFiles) {
  const auto store_path = temp_path("sniff_store.qds");
  {
    Store store(store_path);
    store.put({1, 1, 0}, pattern(16, 15));
    store.commit();
  }
  EXPECT_TRUE(Store::sniff(store_path));
  const auto blob_path = temp_path("sniff_blob.bin");
  dump(blob_path, pattern(256, 16));
  EXPECT_FALSE(Store::sniff(blob_path));
  EXPECT_FALSE(Store::sniff(temp_path("sniff_missing.bin")));
}

TEST(StoreTest, TornTailIsDiscardedOnReopen) {
  const auto path = temp_path("torn_tail.qds");
  const auto value = pattern(1000, 17);
  {
    Store store(path);
    store.put({1, 1, 0}, value);
    store.commit();
  }
  // Simulate a crash mid-append: garbage half-page past the commit record.
  auto bytes = slurp(path);
  const auto committed_size = bytes.size();
  const auto garbage = pattern(kPageSize / 2, 18);
  bytes.insert(bytes.end(), garbage.begin(), garbage.end());
  dump(path, bytes);
  Store reopened(path);
  EXPECT_EQ(reopened.get({1, 1, 0}), value);
  EXPECT_EQ(slurp(path).size(), committed_size);  // tail discarded
}

TEST(StoreTest, GarbageFileOpensAsEmptyStore) {
  const auto path = temp_path("garbage.qds");
  dump(path, pattern(3 * kPageSize, 19));  // no valid page anywhere
  Store store(path);
  EXPECT_EQ(store.committed_seq(), 0u);
  EXPECT_TRUE(store.keys().empty());
  // And it is usable from scratch.
  store.put({1, 1, 0}, pattern(32, 20));
  store.commit();
  Store reopened(path);
  EXPECT_TRUE(reopened.contains({1, 1, 0}));
}

// ---------------------------------------------------------------------------
// Corrupted-byte fuzz: perturbing any byte of the committed file must yield
// either the full committed state (corruption in dead bytes), a clean older
// committed state (fallback), or an empty store — never a crash, never a
// read that returns corrupt data.
// ---------------------------------------------------------------------------

class CorruptionFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs every case as its own process, concurrently under -j, so
    // the fixture's file carries the test name and the pid.
    path_ = temp_path(std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) +
                      "." + std::to_string(::getpid()) + "_fuzz.qds");
    {
      Store store(path_);
      store.put({1, 1, 0}, pattern(2 * kPagePayload + 100, 21));
      store.commit();
      state1_ = contents_of(store);
      store.put({1, 1, 1}, pattern(kPagePayload + 50, 22));
      store.put({1, 2, 0}, pattern(333, 23));
      store.commit();
      state2_ = contents_of(store);
    }
    pristine_ = slurp(path_);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// Flips one byte at `offset`, reopens, and checks the recovery contract.
  void check_flip(std::size_t offset) {
    auto bytes = pristine_;
    bytes[offset] ^= 0x5A;
    dump(path_, bytes);
    Store store(path_);  // must not throw: corruption is recovered, not fatal
    const auto recovered = contents_of(store);  // get() verifies every record
    const bool ok = recovered == state2_ || recovered == state1_ || recovered.empty();
    ASSERT_TRUE(ok) << "offset " << offset << " recovered to an unknown state";
  }

  std::string path_;
  std::vector<std::uint8_t> pristine_;
  std::map<Key, std::vector<std::uint8_t>> state1_, state2_;
};

TEST_F(CorruptionFuzz, EveryByteOfTheLastCommitPageFallsBackCleanly) {
  // The last page is the seq-2 commit record: every header field (magic,
  // kind, id, length, reserved, CRC) and every payload byte perturbed.
  const std::size_t last_page = pristine_.size() - kPageSize;
  for (std::size_t off = 0; off < kPageSize; ++off) {
    check_flip(last_page + off);
    if (HasFatalFailure()) return;
  }
}

TEST_F(CorruptionFuzz, EveryHeaderByteOfEveryPageIsDetected) {
  for (std::size_t page = 0; page * kPageSize < pristine_.size(); ++page) {
    for (std::size_t off = 0; off < kPageHeaderSize; ++off) {
      check_flip(page * kPageSize + off);
      if (HasFatalFailure()) return;
    }
  }
}

TEST_F(CorruptionFuzz, SampledPayloadBytesAcrossTheWholeFileAreDetected) {
  // Every 97th byte covers every page's payload area at staggered offsets.
  for (std::size_t off = 0; off < pristine_.size(); off += 97) {
    check_flip(off);
    if (HasFatalFailure()) return;
  }
}

TEST_F(CorruptionFuzz, TruncationAtEveryPageBoundaryAndMidPageRecovers) {
  for (std::size_t keep : {pristine_.size() - 1, pristine_.size() - kPageSize / 3,
                           pristine_.size() - kPageSize, 3 * std::size_t{kPageSize},
                           std::size_t{kPageSize}, std::size_t{17}, std::size_t{0}}) {
    if (keep > pristine_.size()) continue;
    auto bytes = pristine_;
    bytes.resize(keep);
    dump(path_, bytes);
    Store store(path_);
    const auto recovered = contents_of(store);
    const bool ok = recovered == state2_ || recovered == state1_ || recovered.empty();
    ASSERT_TRUE(ok) << "truncation to " << keep << " bytes";
  }
}

}  // namespace
}  // namespace quickdrop::store
