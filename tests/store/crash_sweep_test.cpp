// Kill-point recovery harness: sweeps a fault over EVERY write and fsync of a
// canonical store workload (three two-phase commits + a vacuum) and asserts
// the store reopens to exactly a committed state — bitwise — no matter where
// the "process" died or which bytes were torn or flipped on the way down.
//
// The sweep is built in two passes:
//   1. Dry run through CountingIo to learn how many kill points each file
//      backend has (main store, vacuum scratch, post-vacuum reopen) and to
//      capture the expected contents after each acknowledged commit.
//   2. One trial per (backend instance, op kind, op index, fault mode):
//      run the workload against a FaultyIo that dies at that exact point,
//      reopen with a clean backend, and check the recovered contents.
//
// Recovery contract for dying faults: with `a` acknowledged commits, the
// recovered state is snapshots[a] or snapshots[a+1] — the in-flight commit is
// allowed to survive when every one of its bytes reached the file before the
// injected death (e.g. a fault on the final fsync), but nothing in between
// and nothing corrupt. Silent bit flips (no death) may additionally roll back
// further: a flipped live data page invalidates every later commit that
// references it, and full-verification recovery walks back past all of them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "store/store.h"
#include "util/rng.h"

namespace quickdrop::store {
namespace {

using Contents = std::map<Key, std::vector<std::uint8_t>>;

std::vector<std::uint8_t> pattern(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> out(n);
  Rng rng(seed);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return out;
}

Contents contents_of(Store& store) {
  Contents out;
  for (const auto& key : store.keys()) out[key] = store.get(key);
  return out;
}

struct WorkloadResult {
  int acked = 0;        ///< commits whose commit() returned
  bool vacuumed = false;
  bool died = false;    ///< a StoreError escaped the workload
};

/// The canonical workload: three commits exercising multi-page values,
/// page-level dedup, erase, and an empty value, then a vacuum. Deterministic,
/// so the N-th write of a trial is the N-th write of the dry run.
WorkloadResult run_workload(const std::string& path, const IoFactory& factory,
                            const std::function<void(Store&, int)>& after_commit = {}) {
  WorkloadResult res;
  try {
    Store store(path, factory);
    store.put({1, 1, 0}, pattern(2 * kPagePayload + 500, 1));
    store.put({1, 2, 0}, pattern(300, 2));
    store.commit();
    ++res.acked;
    if (after_commit) after_commit(store, res.acked);
    store.put({1, 1, 1}, pattern(2 * kPagePayload + 500, 1));  // dedups with {1,1,0}
    store.erase({1, 2, 0});
    store.commit();
    ++res.acked;
    if (after_commit) after_commit(store, res.acked);
    store.put({1, 1, 2}, pattern(kPagePayload + 123, 3));
    store.put({2, 1, 0}, {});
    store.commit();
    ++res.acked;
    if (after_commit) after_commit(store, res.acked);
    store.vacuum();
    res.vacuumed = true;
  } catch (const StoreError&) {
    res.died = true;
  }
  return res;
}

/// The running test's store file. ctest runs every case as its own process,
/// concurrently under -j, so the path carries the test name and the pid: no
/// two cases ever share a file.
std::string trial_path() {
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string path = ::testing::TempDir() + "qd_crash_sweep_" + test->name() + "." +
                           std::to_string(::getpid()) + ".qds";
  std::remove(path.c_str());
  std::remove((path + ".vacuum").c_str());
  return path;
}

/// Wraps the `target`-th backend the store asks for in a FaultyIo; every
/// other backend is plain. Instance 0 is the main store file, 1 the vacuum
/// scratch store, 2 the post-vacuum reopen.
IoFactory faulty_factory(int target, FaultSpec spec) {
  auto created = std::make_shared<int>(0);
  return [created, target, spec](const std::string& p) -> std::unique_ptr<Io> {
    std::unique_ptr<Io> io = std::make_unique<FileIo>(p);
    if ((*created)++ == target) io = std::make_unique<FaultyIo>(std::move(io), spec);
    return io;
  };
}

std::string describe(int instance, const FaultSpec& spec) {
  std::string out = "instance " + std::to_string(instance);
  out += spec.op == FaultSpec::Op::kWrite ? " write #" : " sync #";
  out += std::to_string(spec.at_op);
  switch (spec.mode) {
    case FaultSpec::Mode::kFailStop: out += " fail-stop"; break;
    case FaultSpec::Mode::kTorn:
      out += " torn(" + std::to_string(spec.torn_bytes) + ")";
      break;
    case FaultSpec::Mode::kBitFlip:
      out += " bit-flip(" + std::to_string(spec.flip_bit) + ")";
      break;
    case FaultSpec::Mode::kSilentFlip:
      out += " silent-flip(" + std::to_string(spec.flip_bit) + ")";
      break;
  }
  return out;
}

class CrashSweep : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = trial_path();
    snapshots_.push_back({});  // snapshots_[0]: before any commit
    auto counting = [this](const std::string& p) -> std::unique_ptr<Io> {
      tallies_.emplace_back(0, 0);
      auto& tally = tallies_.back();  // deque: stable across later pushes
      return std::make_unique<CountingIo>(std::make_unique<FileIo>(p),
                                          &tally.first, &tally.second);
    };
    const auto dry = run_workload(path_, counting, [this](Store& s, int) {
      snapshots_.push_back(contents_of(s));
    });
    ASSERT_FALSE(dry.died);
    ASSERT_EQ(dry.acked, 3);
    ASSERT_TRUE(dry.vacuumed);
    ASSERT_EQ(snapshots_.size(), 4u);
    ASSERT_GE(tallies_.size(), 2u);  // main store + vacuum scratch at least
    // Guard against the sweep silently shrinking: the workload must expose a
    // healthy number of kill points on the main store file.
    ASSERT_GE(tallies_[0].first, 10) << "main store saw suspiciously few writes";
    ASSERT_GE(tallies_[0].second, 3) << "main store saw suspiciously few fsyncs";
  }

  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".vacuum").c_str());
  }

  /// Runs one trial and checks the recovery contract. `dying` selects the
  /// strict {snap[a], snap[a+1]} contract; silent faults get the relaxed
  /// any-committed-state contract.
  void run_trial(int instance, const FaultSpec& spec, bool dying) {
    std::remove(path_.c_str());
    std::remove((path_ + ".vacuum").c_str());
    const auto res = run_workload(path_, faulty_factory(instance, spec));
    Store reopened(path_);  // recovery must never throw
    const auto recovered = contents_of(reopened);  // and every get() verifies
    bool ok = false;
    if (dying) {
      const auto a = static_cast<std::size_t>(res.acked);
      ok = recovered == snapshots_[a] ||
           (a + 1 < snapshots_.size() && recovered == snapshots_[a + 1]);
    } else {
      for (const auto& snap : snapshots_) ok = ok || recovered == snap;
    }
    ASSERT_TRUE(ok) << describe(instance, spec) << ": acked " << res.acked
                    << " commits, recovered " << recovered.size()
                    << " records matching no allowed snapshot";
    // The recovered store must be fully usable, not merely readable.
    const auto probe = pattern(64, 4242);
    reopened.put({99, 9, 1}, probe);
    reopened.commit();
    ASSERT_EQ(reopened.get({99, 9, 1}), probe) << describe(instance, spec);
  }

  std::string path_;
  std::deque<std::pair<int, int>> tallies_;  // per backend: (writes, syncs)
  std::vector<Contents> snapshots_;
};

TEST_F(CrashSweep, EveryWriteKillPointRecoversToACommittedState) {
  for (std::size_t instance = 0; instance < tallies_.size(); ++instance) {
    for (int at = 1; at <= tallies_[instance].first; ++at) {
      FaultSpec spec;
      spec.op = FaultSpec::Op::kWrite;
      spec.at_op = at;
      spec.mode = FaultSpec::Mode::kFailStop;
      run_trial(static_cast<int>(instance), spec, /*dying=*/true);
      if (HasFatalFailure()) return;
    }
  }
}

TEST_F(CrashSweep, EverySyncKillPointRecoversToACommittedState) {
  for (std::size_t instance = 0; instance < tallies_.size(); ++instance) {
    for (int at = 1; at <= tallies_[instance].second; ++at) {
      FaultSpec spec;
      spec.op = FaultSpec::Op::kSync;
      spec.at_op = at;
      spec.mode = FaultSpec::Mode::kFailStop;
      run_trial(static_cast<int>(instance), spec, /*dying=*/true);
      if (HasFatalFailure()) return;
    }
  }
}

TEST_F(CrashSweep, TornWritesAtEveryKillPointRecover) {
  // 0 bytes (nothing lands), 1 byte (header clobbered), 2049 bytes (half a
  // page: header valid, payload truncated — the nastiest tear).
  for (const std::uint64_t torn : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2049}}) {
    for (std::size_t instance = 0; instance < tallies_.size(); ++instance) {
      for (int at = 1; at <= tallies_[instance].first; ++at) {
        FaultSpec spec;
        spec.op = FaultSpec::Op::kWrite;
        spec.at_op = at;
        spec.mode = FaultSpec::Mode::kTorn;
        spec.torn_bytes = torn;
        run_trial(static_cast<int>(instance), spec, /*dying=*/true);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST_F(CrashSweep, BitFlippedWritesAtEveryKillPointRecover) {
  // Bit 7 lands in the page magic; 12345 deep inside the payload area.
  for (const std::uint64_t bit : {std::uint64_t{7}, std::uint64_t{12345}}) {
    for (std::size_t instance = 0; instance < tallies_.size(); ++instance) {
      for (int at = 1; at <= tallies_[instance].first; ++at) {
        FaultSpec spec;
        spec.op = FaultSpec::Op::kWrite;
        spec.at_op = at;
        spec.mode = FaultSpec::Mode::kBitFlip;
        spec.flip_bit = bit;
        run_trial(static_cast<int>(instance), spec, /*dying=*/true);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST_F(CrashSweep, SilentBitFlipsNeverCrashAndRecoverToSomeCommittedState) {
  // The process does NOT die: the flipped write lands and execution carries
  // on, so later commits may stack on top of a corrupt page. Recovery must
  // still land on some committed state (possibly empty, when the flip hit a
  // page every commit's records depend on) and the store must stay usable.
  for (std::size_t instance = 0; instance < tallies_.size(); ++instance) {
    for (int at = 1; at <= tallies_[instance].first; ++at) {
      FaultSpec spec;
      spec.op = FaultSpec::Op::kWrite;
      spec.at_op = at;
      spec.mode = FaultSpec::Mode::kSilentFlip;
      spec.flip_bit = 12345;
      run_trial(static_cast<int>(instance), spec, /*dying=*/false);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace quickdrop::store
