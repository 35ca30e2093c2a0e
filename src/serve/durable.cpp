#include "serve/durable.h"

#include <algorithm>
#include <iterator>
#include <string>

namespace quickdrop::serve {
namespace {

// Record body: a serialized checkpoint (core/checkpoint.h, v4) whose
// RoundCursor names the phase, the rounds done in it and the phase RNG.
constexpr const char* kPhaseNames[] = {"unlearn", "recover"};
static_assert(core::UnlearnCursor::kPhaseUnlearn == 0 &&
              core::UnlearnCursor::kPhaseRecover == 1);

store::StoreError stale_record(const std::string& what) {
  return store::StoreError("durable cursor record: " + what +
                           "; clear stale cursors before resuming with this build");
}

}  // namespace

std::uint64_t encode_unlearn_cursor(const core::UnlearnCursor& cursor) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cursor.phase)) << 32) |
         static_cast<std::uint32_t>(cursor.rounds_done);
}

core::UnlearnCursorCallback durable_cursor_callback(store::Store& store,
                                                    core::QuickDrop& quickdrop) {
  return [&store, &quickdrop](const core::UnlearnCursor& cursor, const nn::ModelState& state) {
    auto cp = core::make_checkpoint(state, quickdrop.stores());
    cp.cursor = core::RoundCursor{.phase = kPhaseNames[cursor.phase],
                                  .rounds_done = cursor.rounds_done,
                                  .rng_state = cursor.rng_state};
    store.put({core::checkpoint_layout_hash(cp), core::kRecordUnlearnCursor,
               encode_unlearn_cursor(cursor)},
              core::serialize_checkpoint(cp));
    store.commit();
  };
}

std::optional<DurableCursor> load_durable_cursor(store::Store& store,
                                                 std::uint64_t layout_hash) {
  const auto key = store.latest(layout_hash, core::kRecordUnlearnCursor);
  if (!key) return std::nullopt;
  DurableCursor out;
  try {
    out.checkpoint = core::deserialize_checkpoint(store.get(*key));
  } catch (const std::invalid_argument& e) {
    throw stale_record(e.what());
  }
  const auto& cursor = out.checkpoint.cursor;
  if (!cursor) throw stale_record("no cursor");
  const auto* const name = std::find(std::begin(kPhaseNames), std::end(kPhaseNames), cursor->phase);
  if (name == std::end(kPhaseNames)) throw stale_record("unknown phase '" + cursor->phase + "'");
  out.cursor = core::UnlearnCursor{.phase = static_cast<int>(name - std::begin(kPhaseNames)),
                                   .rounds_done = cursor->rounds_done,
                                   .rng_state = cursor->rng_state};
  return out;
}

void clear_durable_cursors(store::Store& store, std::uint64_t layout_hash) {
  bool changed = false;
  for (const auto& key : store.keys()) {
    if (key.layout_hash == layout_hash && key.kind == core::kRecordUnlearnCursor) {
      changed = store.erase(key) || changed;
    }
  }
  if (changed) store.commit();
}

}  // namespace quickdrop::serve
