// Durable mid-request resume: a serve cycle whose per-round cursors stream
// into the crash-safe store is killed by an injected I/O fault, reopened from
// disk, and resumed — landing bitwise-identically to an uninterrupted run, at
// 1 and at 4 threads. Plus Fig. 4-style sequential unlearning where the whole
// deployment round-trips through store-backed checkpoints between requests.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "nn/convnet.h"
#include "serve/durable.h"
#include "serve/executor.h"
#include "store/store.h"
#include "util/thread_pool.h"

namespace quickdrop::serve {
namespace {

struct ThreadGuard {
  int saved = num_threads();
  ~ThreadGuard() { set_num_threads(saved); }
};

data::TrainTest make_mini_data() {
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

void expect_states_bitwise_equal(const nn::ModelState& a, const nn::ModelState& b,
                                 const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_EQ(a.numel(), b.numel()) << what;
  for (std::int64_t j = 0; j < a.numel(); ++j) {
    ASSERT_EQ(a.at(j), b.at(j)) << what << ": flat entry " << j;
  }
}

ServiceRequest class_request(int target) {
  ServiceRequest request;
  request.kind = RequestKind::kClass;
  request.target = target;
  return request;
}

std::string temp_store(const char* name) {
  const std::string path = ::testing::TempDir() + "qd_durable_" + name;
  std::remove(path.c_str());
  std::remove((path + ".vacuum").c_str());
  return path;
}

/// Trains the mini federation once and snapshots (global, stores) as a
/// checkpoint, so every run under comparison starts from the identical
/// deployment without retraining.
core::Checkpoint train_once() {
  set_num_threads(1);
  MiniFederation fed;
  core::QuickDrop qd(fed.factory, fed.clients, MiniFederation::config(), 99);
  const auto trained = qd.train();
  return core::make_checkpoint(trained, qd.stores());
}

/// A fresh coordinator (same seed, no training) with the deployment's stores
/// restored — how a restarted process reconstructs its serving state.
std::shared_ptr<core::QuickDrop> restored_coordinator(
    const core::Checkpoint& cp, const core::QuickDropConfig& config = MiniFederation::config()) {
  MiniFederation fed;
  auto qd = std::make_shared<core::QuickDrop>(fed.factory, fed.clients, config, 99);
  qd->load_stores(core::restore_stores(cp));
  return qd;
}

/// Kills the store's file backend at the `at_sync`-th fsync: the per-round
/// commit inside durable_cursor_callback throws mid-cycle, exactly like a
/// disk dying under a live service.
store::IoFactory dying_factory(int at_sync) {
  return [at_sync](const std::string& p) -> std::unique_ptr<store::Io> {
    store::FaultSpec spec;
    spec.op = store::FaultSpec::Op::kSync;
    spec.mode = store::FaultSpec::Mode::kFailStop;
    spec.at_op = at_sync;
    return std::make_unique<store::FaultyIo>(std::make_unique<store::FileIo>(p), spec);
  };
}

TEST(DurableResumeTest, KilledMidCycleResumesBitwiseAtOneAndFourThreads) {
  ThreadGuard guard;
  const auto deployment = train_once();
  const auto hash = core::checkpoint_layout_hash(deployment);
  const auto request = class_request(1);

  // Reference: the uninterrupted cycle at 1 thread.
  set_num_threads(1);
  auto qd_full = restored_coordinator(deployment);
  const auto full = Executor(qd_full, CostModel{}).execute(deployment.global, {request});
  const int total_rounds = full.unlearn_stats.rounds + full.recovery_stats.rounds;
  ASSERT_EQ(total_rounds, 4);  // 2 unlearn + 2 recovery in the mini config

  // The "crashed" run: cursors stream into a store whose backend dies at the
  // 5th fsync — mid-commit of a later round's cursor record.
  const auto path = temp_store("killed.qds");
  {
    auto qd = restored_coordinator(deployment);
    store::Store store(path, dying_factory(5));
    bool died = false;
    try {
      Executor(qd, CostModel{}).execute(deployment.global, {request},
                                        durable_cursor_callback(store, *qd));
    } catch (const store::StoreError&) {
      died = true;
    }
    ASSERT_TRUE(died) << "the injected fault must kill the cycle mid-flight";
  }

  // Restart: reopen the store with a healthy backend and load the newest
  // committed cursor. At least one round must have committed before the kill,
  // and the cycle must genuinely be unfinished.
  store::Store reopened(path);
  const auto durable = load_durable_cursor(reopened, hash);
  ASSERT_TRUE(durable.has_value()) << "no committed cursor survived the crash";
  const int rounds_banked = durable->cursor.rounds_done +
                            (durable->cursor.phase == core::UnlearnCursor::kPhaseRecover
                                 ? full.unlearn_stats.rounds
                                 : 0);
  ASSERT_GT(rounds_banked, 0);
  ASSERT_LT(rounds_banked, total_rounds);

  // Resume at 1 thread and at 4 threads: both must land bitwise on the
  // uninterrupted result, executing only the remaining rounds.
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    auto qd = restored_coordinator(durable->checkpoint);
    const auto resumed = Executor(qd, CostModel{})
                             .execute(durable->checkpoint.global, {request}, {},
                                      &durable->cursor);
    expect_states_bitwise_equal(full.state, resumed.state,
                                threads == 1 ? "resume @1 thread" : "resume @4 threads");
    EXPECT_EQ(resumed.unlearn_stats.rounds + resumed.recovery_stats.rounds,
              total_rounds - rounds_banked)
        << "resume must execute exactly the remaining rounds";
    EXPECT_TRUE(qd->forgotten_classes().count(1));
  }

  // Once the request's result is durable the cursors are cleared, so a later
  // crash cannot resurrect the finished cycle.
  clear_durable_cursors(reopened, hash);
  EXPECT_FALSE(load_durable_cursor(reopened, hash).has_value());
  store::Store cleared(path);
  EXPECT_FALSE(load_durable_cursor(cleared, hash).has_value());
}

TEST(DurableResumeTest, KilledMidVerifiedSgaUnderFaultsResumesBitwise) {
  // Verified SGA as the CLI runs it (up to 4 rounds, early stop), under a
  // fault plan that crashes the only client of a client-level request in SGA
  // round 0 but not in round 1. The store dies while committing an SGA round
  // >= 1, and the cycle resumes from the newest surviving cursor.
  ThreadGuard guard;
  const auto deployment = train_once();
  const auto hash = core::checkpoint_layout_hash(deployment);
  constexpr int kClient = 1;
  auto config = MiniFederation::config();
  config.unlearn_rounds = 1;
  config.max_unlearn_rounds = 4;
  for (std::uint64_t seed = 1;; ++seed) {
    config.faults = fl::FaultPlan(seed, fl::FaultRates{.crash = 0.5f});
    if (config.faults.fault_for(0, 0, kClient) == fl::FaultKind::kCrash &&
        config.faults.fault_for(1, 0, kClient) == fl::FaultKind::kNone) {
      break;
    }
  }
  ServiceRequest request;
  request.kind = RequestKind::kClient;
  request.target = kClient;

  set_num_threads(1);
  auto qd_full = restored_coordinator(deployment, config);
  const auto full = Executor(qd_full, CostModel{}).execute(deployment.global, {request});
  ASSERT_GE(full.unlearn_stats.cost.lost_rounds, 1);
  ASSERT_GE(full.unlearn_stats.rounds, 2);
  const int total_rounds = full.unlearn_stats.rounds + full.recovery_stats.rounds;

  // Kill the store at successive fsyncs until the newest committed cursor is
  // an SGA round >= 1 of a cycle that died.
  const auto path = temp_store("killed_verified.qds");
  std::optional<DurableCursor> durable;
  for (int at_sync = 1; !durable && at_sync <= 64; ++at_sync) {
    std::remove(path.c_str());
    bool died = false;
    try {
      auto qd = restored_coordinator(deployment, config);
      store::Store store(path, dying_factory(at_sync));
      Executor(qd, CostModel{}).execute(deployment.global, {request},
                                        durable_cursor_callback(store, *qd));
    } catch (const store::StoreError&) {
      died = true;
    }
    store::Store reopened(path);
    auto loaded = load_durable_cursor(reopened, hash);
    if (died && loaded && loaded->cursor.phase == core::UnlearnCursor::kPhaseUnlearn &&
        loaded->cursor.rounds_done >= 1) {
      durable = std::move(loaded);
    }
  }
  ASSERT_TRUE(durable.has_value()) << "no kill point left a committed SGA round >= 1";
  ASSERT_LT(durable->cursor.rounds_done, full.unlearn_stats.rounds) << "SGA was not mid-flight";
  EXPECT_EQ(durable->cursor.rng_state.size(), Rng::kSerializedSize);

  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    auto qd = restored_coordinator(durable->checkpoint, config);
    const auto resumed = Executor(qd, CostModel{})
                             .execute(durable->checkpoint.global, {request}, {},
                                      &durable->cursor);
    expect_states_bitwise_equal(full.state, resumed.state,
                                threads == 1 ? "resume @1 thread" : "resume @4 threads");
    EXPECT_EQ(resumed.unlearn_stats.rounds + resumed.recovery_stats.rounds,
              total_rounds - durable->cursor.rounds_done)
        << "resume must execute exactly the remaining rounds";
  }
}

TEST(DurableResumeTest, SequentialUnlearningThroughStoreMatchesUninterrupted) {
  // Fig. 4's regime: requests served one after another, forgotten state
  // accumulating. The store-backed history saves a full checkpoint after each
  // completed request; a restart between requests 2 and 3 reloads the latest
  // checkpoint, replays the forgotten marks, and continues — the final model
  // must be bitwise what an unkilled sequential run produces.
  ThreadGuard guard;
  set_num_threads(1);
  const auto deployment = train_once();
  const auto hash = core::checkpoint_layout_hash(deployment);
  const std::vector<ServiceRequest> history = {class_request(1), class_request(2),
                                               class_request(3)};

  // Reference: all three requests on one long-lived coordinator.
  auto qd_full = restored_coordinator(deployment);
  Executor exec_full(qd_full, CostModel{});
  auto full_state = deployment.global;
  for (const auto& request : history) {
    full_state = exec_full.execute(full_state, {request}).state;
  }

  // Store-backed history: serve requests 1 and 2, checkpointing after each.
  const auto path = temp_store("sequential.qds");
  {
    auto qd = restored_coordinator(deployment);
    Executor executor(qd, CostModel{});
    store::Store store(path);
    auto state = deployment.global;
    std::uint64_t live_after_first = 0;
    for (std::uint64_t served = 0; served < 2; ++served) {
      state = executor
                  .execute(state, {history[served]}, durable_cursor_callback(store, *qd))
                  .state;
      core::save_checkpoint(core::make_checkpoint(state, qd->stores()), store, served + 1);
      clear_durable_cursors(store, hash);
      if (served == 0) live_after_first = store.stats().live_pages;
    }
    // Unlearning rewrites the model, not the synthetic data, so the second
    // checkpoint shares its synthetic-store pages with the first: two live
    // checkpoints cost less than two full copies.
    const auto stats = store.stats();
    EXPECT_EQ(stats.records, 2u);
    EXPECT_LT(stats.live_pages, 2 * live_after_first);
  }  // process "dies" here, between requests 2 and 3

  // Restart: latest store checkpoint + replayed forgotten marks, then the
  // remaining request.
  store::Store store(path);
  ASSERT_FALSE(load_durable_cursor(store, hash).has_value());  // no cycle in flight
  const auto round = core::latest_checkpoint_round(store, hash);
  ASSERT_TRUE(round.has_value());
  ASSERT_EQ(*round, 2u);
  const auto cp = core::load_checkpoint(store, hash, *round);
  auto qd = restored_coordinator(cp);
  for (std::uint64_t served = 0; served < *round; ++served) {
    qd->mark_forgotten(core::UnlearningRequest::for_class(history[served].target));
  }
  const auto resumed_state =
      Executor(qd, CostModel{}).execute(cp.global, {history[2]}).state;

  expect_states_bitwise_equal(full_state, resumed_state, "sequential history through store");
  EXPECT_EQ(qd->forgotten_classes(), qd_full->forgotten_classes());
}

TEST(DurableResumeTest, StaleCursorRecordIsRefusedUntilCleared) {
  // A cursor record that is not a checkpoint with an "unlearn"/"recover"
  // cursor must not be resumed: the previous build's own "QDUC" v3 wrapper,
  // a checkpoint with no cursor and one whose cursor names another phase are
  // all refused with the remedy named, and clearing the stale cursors lets a
  // fresh request proceed.
  ThreadGuard guard;
  set_num_threads(1);
  const auto deployment = train_once();
  const auto hash = core::checkpoint_layout_hash(deployment);
  store::Store store(temp_store("stale_cursor.qds"));
  auto run_request = [&] {
    auto qd = restored_coordinator(deployment);
    Executor(qd, CostModel{})
        .execute(deployment.global, {class_request(2)}, durable_cursor_callback(store, *qd));
  };
  run_request();

  const auto key = store.latest(hash, core::kRecordUnlearnCursor);
  ASSERT_TRUE(key.has_value());
  const auto record = store.get(*key);
  auto cp = core::deserialize_checkpoint(record);
  ASSERT_TRUE(cp.cursor.has_value());
  EXPECT_EQ(cp.cursor->phase, "recover");

  // Magic, phase, rounds, rng length + bytes, checkpoint length + bytes.
  std::vector<std::uint8_t> v3;
  auto put_u64 = [&v3](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) v3.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  put_u64(0x51445543'00000003ULL);
  put_u64(core::UnlearnCursor::kPhaseRecover);
  put_u64(static_cast<std::uint64_t>(cp.cursor->rounds_done));
  put_u64(cp.cursor->rng_state.size());
  v3.insert(v3.end(), cp.cursor->rng_state.begin(), cp.cursor->rng_state.end());
  auto no_cursor = cp;
  no_cursor.cursor.reset();
  const auto no_cursor_bytes = core::serialize_checkpoint(no_cursor);
  put_u64(no_cursor_bytes.size());
  v3.insert(v3.end(), no_cursor_bytes.begin(), no_cursor_bytes.end());
  auto train_phase = cp;
  train_phase.cursor->phase = "train";

  for (const auto& stale : {v3, no_cursor_bytes, core::serialize_checkpoint(train_phase)}) {
    store.put(*key, stale);
    store.commit();
    try {
      (void)load_durable_cursor(store, hash);
      ADD_FAILURE() << "a stale cursor record was resumed";
    } catch (const store::StoreError& e) {
      EXPECT_NE(std::string(e.what()).find("clear stale cursors"), std::string::npos)
          << e.what();
    }
  }

  clear_durable_cursors(store, hash);
  EXPECT_FALSE(load_durable_cursor(store, hash).has_value());
  run_request();
  const auto fresh = load_durable_cursor(store, hash);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->cursor.phase, core::UnlearnCursor::kPhaseRecover);
}

}  // namespace
}  // namespace quickdrop::serve
