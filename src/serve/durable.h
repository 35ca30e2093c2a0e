// Durable mid-request checkpoints: the serve executor's UnlearnCursor stream
// persisted through the crash-safe state store.
//
// The executor reports an UnlearnCursor after every completed unlearn/recover
// round (core/quickdrop.h). `durable_cursor_callback` turns that stream into
// committed store records — each round individually durable, keyed by
// (layout hash, kRecordUnlearnCursor, (phase<<32)|rounds_done) so the latest
// key IS the temporally newest round. Each record is a plain checkpoint
// (core/checkpoint.h) whose RoundCursor holds the phase ("unlearn" or
// "recover"), the rounds done in it and the phase RNG. A service killed mid-request reopens
// the store, loads the last committed cursor + checkpoint with
// `load_durable_cursor`, and resumes the in-flight cycle bit-identically to
// an uninterrupted run (tests/store/durable_resume_test.cpp proves bitwise
// equality at 1 and 4 threads). After a request completes, the cursor
// records are cleared so a later crash does not resurrect a finished cycle.
#pragma once

#include <optional>

#include "core/checkpoint.h"
#include "core/quickdrop.h"
#include "store/store.h"

namespace quickdrop::serve {

/// A mid-request resume point loaded back from a store: the cursor plus the
/// full checkpoint (global state + synthetic stores) as of that round.
struct DurableCursor {
  core::UnlearnCursor cursor;
  core::Checkpoint checkpoint;
};

/// Store-key cursor for an UnlearnCursor position. Recover-phase keys sort
/// above unlearn-phase keys and rounds sort within a phase, matching
/// execution order, so store::Store::latest() returns the newest round.
std::uint64_t encode_unlearn_cursor(const core::UnlearnCursor& cursor);

/// A cursor callback that persists every reported round into `store` (one
/// committed record per round) together with `quickdrop`'s synthetic stores
/// as of that round. `quickdrop` and `store` must outlive the callback.
core::UnlearnCursorCallback durable_cursor_callback(store::Store& store,
                                                    core::QuickDrop& quickdrop);

/// Newest committed mid-request cursor for this deployment, or nullopt when
/// no request was in flight. A record that does not decode as a checkpoint
/// with an "unlearn"/"recover" cursor throws store::StoreError.
std::optional<DurableCursor> load_durable_cursor(store::Store& store,
                                                 std::uint64_t layout_hash);

/// Removes all mid-request cursor records for this deployment and commits —
/// call once the request's cycle has completed and its result is durable.
void clear_durable_cursors(store::Store& store, std::uint64_t layout_hash);

}  // namespace quickdrop::serve
