#include "serve/durable.h"

#include <string>
#include <vector>

namespace quickdrop::serve {
namespace {

// Record body: a small cursor wrapper around a full serialized checkpoint.
// The cursor's rng_state travels here rather than in Checkpoint::RoundCursor
// because the verified-SGA path legitimately has an EMPTY rng state (its
// iterations re-derive RNG from the coordinator seed), which the checkpoint
// cursor format rejects.
// Layout: magic, phase, rounds_done, rng length + bytes, checkpoint length +
// bytes. Records with any other magic (including the v1 and v2 layouts of
// earlier builds) are refused rather than resumed under a guessed layout.
constexpr std::uint64_t kCursorMagic = 0x51445543'00000003ULL;  // "QDUC" v3

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t get_u64(std::span<const std::uint8_t> bytes, std::size_t& pos) {
  if (bytes.size() - pos < 8) {
    throw store::StoreError("durable cursor record: truncated");
  }
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes[pos + i]) << (8 * i);
  pos += 8;
  return v;
}

}  // namespace

std::uint64_t encode_unlearn_cursor(const core::UnlearnCursor& cursor) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cursor.phase)) << 32) |
         static_cast<std::uint32_t>(cursor.rounds_done);
}

core::UnlearnCursorCallback durable_cursor_callback(store::Store& store,
                                                    core::QuickDrop& quickdrop) {
  return [&store, &quickdrop](const core::UnlearnCursor& cursor, const nn::ModelState& state) {
    const auto cp = core::make_checkpoint(state, quickdrop.stores());
    const auto cp_bytes = core::serialize_checkpoint(cp);
    std::vector<std::uint8_t> body;
    body.reserve(cp_bytes.size() + 64);
    put_u64(body, kCursorMagic);
    put_u64(body, static_cast<std::uint64_t>(cursor.phase));
    put_u64(body, static_cast<std::uint64_t>(cursor.rounds_done));
    put_u64(body, cursor.rng_state.size());
    body.insert(body.end(), cursor.rng_state.begin(), cursor.rng_state.end());
    put_u64(body, cp_bytes.size());
    body.insert(body.end(), cp_bytes.begin(), cp_bytes.end());
    const std::uint64_t layout_hash = core::checkpoint_layout_hash(cp);
    store.put({layout_hash, core::kRecordUnlearnCursor, encode_unlearn_cursor(cursor)}, body);
    store.commit();
  };
}

std::optional<DurableCursor> load_durable_cursor(store::Store& store,
                                                 std::uint64_t layout_hash) {
  const auto key = store.latest(layout_hash, core::kRecordUnlearnCursor);
  if (!key) return std::nullopt;
  const auto body = store.get(*key);
  std::size_t pos = 0;
  if (get_u64(body, pos) != kCursorMagic) {
    throw store::StoreError(
        "durable cursor record: unknown format; clear stale cursors before resuming with this "
        "build");
  }
  DurableCursor out;
  out.cursor.phase = static_cast<int>(get_u64(body, pos));
  if (out.cursor.phase != core::UnlearnCursor::kPhaseUnlearn &&
      out.cursor.phase != core::UnlearnCursor::kPhaseRecover) {
    throw store::StoreError("durable cursor record: bad phase");
  }
  out.cursor.rounds_done = static_cast<int>(get_u64(body, pos));
  if (out.cursor.rounds_done < 0 || out.cursor.rounds_done > 1 << 24) {
    throw store::StoreError("durable cursor record: bad round count");
  }
  const std::uint64_t rng_len = get_u64(body, pos);
  if (rng_len > 4096 || body.size() - pos < rng_len) {
    throw store::StoreError("durable cursor record: bad rng state length");
  }
  out.cursor.rng_state.assign(body.begin() + static_cast<std::ptrdiff_t>(pos),
                              body.begin() + static_cast<std::ptrdiff_t>(pos + rng_len));
  pos += static_cast<std::size_t>(rng_len);
  const std::uint64_t cp_len = get_u64(body, pos);
  if (body.size() - pos != cp_len) {
    throw store::StoreError("durable cursor record: bad checkpoint length");
  }
  out.checkpoint = core::deserialize_checkpoint(
      std::span<const std::uint8_t>(body.data() + pos, static_cast<std::size_t>(cp_len)));
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
