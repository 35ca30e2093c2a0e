// Checkpointing: persist a trained QuickDrop deployment to disk.
//
// The paper's workflow separates training time from unlearning time: the
// synthetic stores generated during training must survive until unlearning
// requests arrive, possibly across process restarts. A checkpoint bundles the
// global model state and every client's synthetic + augmentation data in one
// versioned binary record (format v4, flat global state, see DESIGN.md §11).
// On disk, every checkpoint is a record of a crash-safe store file
// (store/store.h, DESIGN.md §12); there is no other file format.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/synthetic_store.h"
#include "nn/state.h"
#include "store/store.h"
#include "util/rng.h"

namespace quickdrop::core {

/// Record kinds inside a crash-safe store file (store::Key::kind). The store
/// itself treats kinds as opaque; these are quickdrop's assignments.
inline constexpr std::uint32_t kRecordCheckpoint = 1;     ///< full Checkpoint; cursor = round
inline constexpr std::uint32_t kRecordUnlearnCursor = 2;  ///< serve mid-request cursor; cursor = (phase<<32)|rounds

/// Position of an interrupted multi-round phase, persisted so a killed run
/// can resume from the last completed round instead of from scratch. The
/// checkpoint's `global` is the state after `rounds_done` rounds; `rng_state`
/// is the phase RNG (util/rng.h Rng::serialize) as it stood entering round
/// `rounds_done`.
struct RoundCursor {
  std::string phase;      ///< "train", "unlearn", "recover", "relearn", ...
  int rounds_done = 0;    ///< rounds completed == next round index to execute
  std::vector<std::uint8_t> rng_state;
};

/// Everything needed to serve unlearning requests later.
struct Checkpoint {
  /// Free-form key/value metadata (dataset name, federation config, ...);
  /// the CLI uses it to make checkpoints self-describing.
  std::map<std::string, std::string> metadata;
  nn::ModelState global;
  /// Per client, per class: synthetic samples (empty tensor when the class is
  /// absent) and the matching augmentation samples.
  struct ClientStore {
    int num_classes = 0;
    Shape image_shape;
    // Synthetic image tensors, not model states. NOLINTNEXTLINE(qdlint-api-flatstate)
    std::vector<Tensor> synthetic;  // indexed by class; numel 0 == absent
    std::vector<Tensor> augmentation;  // same indexing NOLINT(qdlint-api-flatstate)
  };
  std::vector<ClientStore> clients;
  /// Present while a phase is mid-flight (partial checkpoint written by the
  /// orchestrator every k rounds); absent in finished checkpoints.
  std::optional<RoundCursor> cursor;
};

/// Extracts a checkpointable snapshot from live stores.
Checkpoint make_checkpoint(const nn::ModelState& global,
                           const std::vector<SyntheticStore>& stores);

/// Binary round-trip. The blob ends in an FNV-1a checksum over the payload,
/// so truncation *and* bit flips are both detected. Throws
/// std::invalid_argument on malformed or corrupted input.
std::vector<std::uint8_t> serialize_checkpoint(const Checkpoint& checkpoint);
Checkpoint deserialize_checkpoint(std::span<const std::uint8_t> bytes);

/// Loads the latest committed checkpoint record of the store file at `path`
/// (see load_latest_checkpoint). A missing file, or one that does not start
/// with the store page magic, throws store::StoreError naming the path
/// without being opened as a store, so it is neither created nor modified.
Checkpoint load_checkpoint(const std::string& path);

/// Layout hash of the checkpoint's global state — the store key namespace
/// for this deployment (0 when the global state is empty).
std::uint64_t checkpoint_layout_hash(const Checkpoint& checkpoint);

/// Store-backed persistence. Writes the checkpoint under
/// (layout hash, kRecordCheckpoint, round) and commits; round-over-round
/// saves dedup unchanged pages (synthetic stores that did not change between
/// rounds are stored once). Throws store::StoreError on failure.
void save_checkpoint(const Checkpoint& checkpoint, store::Store& store, std::uint64_t round);
Checkpoint load_checkpoint(store::Store& store, std::uint64_t layout_hash, std::uint64_t round);
/// Highest round holding a checkpoint for this layout, if any.
std::optional<std::uint64_t> latest_checkpoint_round(store::Store& store,
                                                     std::uint64_t layout_hash);
/// Loads the newest committed checkpoint in the store regardless of layout
/// (the record with the highest round; ties broken by layout hash). Throws
/// store::StoreError when the store holds no checkpoint records.
Checkpoint load_latest_checkpoint(store::Store& store);

/// Rebuilds live stores from a checkpoint (shapes/classes restored exactly).
std::vector<SyntheticStore> restore_stores(const Checkpoint& checkpoint);

}  // namespace quickdrop::core
