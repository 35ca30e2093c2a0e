// Streaming round aggregation: the server side of one FedAvg merge.
//
// Every arriving update is folded immediately into a per-lane double
// accumulator (nn/state_accumulator.h) and discarded, so a round's peak server
// memory is O(params), independent of cohort size.
//
// Determinism:
//
//   * Clients map to one of the 64 canonical leaf lanes by an id hash
//     (lane_of — splitmix64 finalizer). The accumulator's root merge runs a
//     fixed binary combine tree over the lanes, so the merged bits depend
//     only on (lane, fold order within lane).
//   * Within a lane, updates fold in arrival order. The engine delivers
//     accepted updates in cohort order (deterministic per round seed), so the
//     fold order — and therefore the merged bits — is identical whether the
//     engine streams update-by-update or buffers the whole cohort first, at
//     any thread count.
//
// Quantized transport decodes *directly into* the accumulator:
// probe_quantized streams the wire frame through fl/quantize's block decoder,
// reconstructs `global + delta` one block at a time in O(kStateBlock) scratch
// and reports the validation stats (finiteness, update norm — bitwise equal
// to all_finite/l2_distance over a materialized decode); fold_quantized
// re-streams the frame and folds the reconstruction. Callers MUST probe (or
// otherwise fully validate the frame) before folding: probe throws
// nn::StateError on malformed frames without touching the accumulator,
// whereas a mid-stream decode failure inside fold_quantized would leave the
// lane partially folded.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fl/quantize.h"
#include "nn/state_accumulator.h"

namespace quickdrop::fl {

class Aggregator {
 public:
  explicit Aggregator(std::shared_ptr<const nn::StateLayout> layout);

  /// Deterministic client → leaf lane assignment (id hash into [0, 64)).
  static int lane_of(int client_id);

  /// Folds one raw fp32 update and forgets it: acc += weight * state.
  void fold(int client_id, const nn::ModelState& state, double weight);

  /// Validation stats of a quantized frame's reconstruction `global + delta`
  /// without materializing it. `finite` matches nn::all_finite over the
  /// reconstruction; `norm` matches nn::l2_distance(reconstruction, global)
  /// bit-for-bit. Throws nn::StateError on a malformed frame (the engine's
  /// quarantine path) — the accumulator is untouched either way.
  struct WireProbe {
    bool finite = false;
    double norm = 0.0;
  };
  WireProbe probe_quantized(std::span<const std::uint8_t> wire, const nn::ModelState& global);

  /// Decodes the frame again and folds the reconstruction block-by-block into
  /// the client's lane, O(kQuantBlock) scratch. The frame must have passed
  /// probe_quantized (see header).
  void fold_quantized(int client_id, std::span<const std::uint8_t> wire,
                      const nn::ModelState& global, double weight);

  /// Root merge: collapses the lanes through the fixed combine tree and
  /// scales, o[i] = (float)(acc[i] * scale) — the engine passes
  /// 1 / total_weight. Fold again only after reset().
  nn::ModelState finalize(double scale);

  /// Re-arms the aggregator for the next round; lane allocations are kept.
  void reset();

  /// Accumulator + scratch bytes — the scale bench's peak-memory accounting.
  [[nodiscard]] std::int64_t memory_bytes() const;

 private:
  nn::StateAccumulator acc_;
  std::vector<float> scratch_;  ///< kStateBlock reconstruction scratch
};

}  // namespace quickdrop::fl
