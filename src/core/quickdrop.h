// QuickDrop end-to-end coordinator (paper §3.4).
//
// Ties together: (1) FL training with in-situ gradient-matching distillation,
// (2) augmentation + optional fine-tuning, (3) SGA unlearning on synthetic
// forget sets, (4) SGD recovery on (augmented) synthetic retain sets, and
// (5) relearning. Sequential requests are supported; the coordinator tracks
// what has been forgotten so recovery never reintroduces erased knowledge.
#pragma once

#include <set>

#include "core/finetune.h"
#include "core/request.h"
#include "core/synthetic_store.h"
#include "fl/resilient.h"

namespace quickdrop::core {

/// All hyperparameters of QuickDrop (paper §4.1 defaults, scaled down).
struct QuickDropConfig {
  // FL training (Algorithm 2).
  int fl_rounds = 20;
  int local_steps = 5;
  int batch_size = 32;
  float train_lr = 0.05f;
  float participation = 1.0f;

  // Synthetic data generation.
  int scale = 100;  ///< s: |S_i^c| = ceil(|D_i^c| / s)
  SyntheticInit synthetic_init = SyntheticInit::kRealSamples;
  DistillConfig distill;
  FinetuneConfig finetune;        ///< outer_steps == 0 disables fine-tuning
  bool augment_recovery = true;   ///< §3.3.1 1:1 original-sample mix

  // Unlearning / recovery / relearning (Algorithm 1 on synthetic data).
  int unlearn_rounds = 1;
  /// Verified unlearning: when > 0, SGA rounds repeat (up to this cap) until
  /// the model's accuracy on the synthetic forget set falls below
  /// `unlearn_target_accuracy`. One round suffices in the paper's regime
  /// (§4.2.1), but late requests in a long sequence (Fig. 4's tail, when
  /// almost no retain data remains to assist) can need more.
  int max_unlearn_rounds = 0;
  float unlearn_target_accuracy = 0.05f;
  int recovery_rounds = 2;
  int relearn_rounds = 3;
  float unlearn_lr = 0.02f;
  float recover_lr = 0.01f;

  /// Fault schedule applied to every FedAvg phase (train/unlearn/recover/
  /// relearn; round indices restart per phase). Default: no faults.
  fl::FaultPlan faults;
  /// Server-side defenses (update validation, quorum/retry) for every phase.
  fl::DefenseConfig defense;
  /// Client→server update transport for every phase (train/unlearn/recover/
  /// relearn). Quantizing codecs cut uploaded bytes ~4× (int8) at a small,
  /// bounded accuracy cost (see fl/quantize.h and DESIGN.md §13).
  fl::TransportConfig transport;
  /// Relearning trains on the (synthetic) forget set ONLY, so it must be
  /// gentle enough not to catastrophically forget the retained classes.
  float relearn_lr = 0.02f;
  int unlearn_local_steps = 5;
  int unlearn_batch_size = 32;
};

/// Measured cost of one phase.
struct PhaseStats {
  double seconds = 0.0;
  fl::CostMeter cost;
  std::int64_t data_size = 0;  ///< samples involved per round of this phase
  int rounds = 0;
};

/// Resume point for an interrupted train() run: the cursor of the last
/// completed FL round (see core/checkpoint.h RoundCursor). The synthetic
/// stores as of that round must be restored separately via load_stores().
struct TrainResume {
  nn::ModelState global;  ///< global state after `rounds_done` rounds
  int rounds_done = 0;
  std::vector<std::uint8_t> rng_state;  ///< phase RNG entering the next round
};

/// Position inside an interrupted unlearn/recover cycle, reported after every
/// completed round so a killed service can resume a request mid-flight (see
/// serve/executor.h). `rng_state` is the phase RNG entering the next round;
/// it is empty on the verified-SGA path, whose iterations re-derive their RNG
/// from the coordinator seed and therefore need only `rounds_done`.
struct UnlearnCursor {
  static constexpr int kPhaseUnlearn = 0;
  static constexpr int kPhaseRecover = 1;
  int phase = kPhaseUnlearn;
  int rounds_done = 0;  ///< completed rounds within `phase`
  std::vector<std::uint8_t> rng_state;
};

/// Fires after every completed unlearn/recover round with the cursor and the
/// global state as of that round. Serializing (cursor, state, stores) — e.g.
/// via core/checkpoint.h — yields a mid-request checkpoint from which
/// unlearn_batch() resumes bit-identically.
using UnlearnCursorCallback =
    std::function<void(const UnlearnCursor& cursor, const nn::ModelState& state)>;

class QuickDrop {
 public:
  /// `client_train` holds each client's local dataset D_i.
  QuickDrop(fl::ModelFactory factory, std::vector<data::Dataset> client_train,
            QuickDropConfig config, std::uint64_t seed);

  /// Steps 1-2: FL training with in-situ distillation, then optional
  /// fine-tuning. Returns the trained global model state. `client_callback`
  /// observes per-client local states (e.g. to record FedEraser history in a
  /// shared training run). `cursor_callback` fires after every completed FL
  /// round with the engine RNG, enabling partial checkpoints; pass `resume`
  /// (with the matching stores loaded) to continue a killed run from its
  /// last completed round — the result is bit-identical to an uninterrupted
  /// run with the same seed.
  nn::ModelState train(const fl::RoundCallback& callback = {},
                       const fl::ClientStateCallback& client_callback = {},
                       const fl::RoundCursorCallback& cursor_callback = {},
                       const TrainResume* resume = nullptr);

  /// The (random-initialization) state FL training started from.
  [[nodiscard]] nn::ModelState initial_state() const;

  /// Shape manifest of the coordinator's model. States fed back into this
  /// coordinator (serve layer, checkpoints) must carry a layout with the
  /// same hash.
  [[nodiscard]] const std::shared_ptr<const nn::StateLayout>& state_layout() const {
    return initial_state_.layout();
  }

  /// Steps 3-4: serves an unlearning request via SGA on S_f followed by
  /// recovery on the augmented S \ S_f. Marks the target as forgotten.
  /// Equivalent to unlearn_batch() with a one-request batch.
  nn::ModelState unlearn(const nn::ModelState& state, const UnlearningRequest& request,
                         PhaseStats* unlearn_stats = nullptr, PhaseStats* recovery_stats = nullptr,
                         const fl::RoundCallback& callback = {});

  /// Serves a *batch* of compatible requests in one SGA + recovery cycle:
  /// the forget set is the union of every request's synthetic counterpart and
  /// the retain set excludes every target (the serve/ scheduler's coalescing
  /// policy rides on this). `cursor_callback` fires after every completed
  /// round of either phase; pass a captured cursor (with the matching state)
  /// as `resume` to continue a killed cycle bit-identically. Marks every
  /// target forgotten on completion.
  nn::ModelState unlearn_batch(const nn::ModelState& state,
                               const std::vector<UnlearningRequest>& batch,
                               PhaseStats* unlearn_stats = nullptr,
                               PhaseStats* recovery_stats = nullptr,
                               const fl::RoundCallback& callback = {},
                               const UnlearnCursorCallback& cursor_callback = {},
                               const UnlearnCursor* resume = nullptr);

  /// Step 5: relearns previously erased knowledge via SGD on S_f and clears
  /// the forgotten mark.
  nn::ModelState relearn(const nn::ModelState& state, const UnlearningRequest& request,
                         PhaseStats* stats = nullptr);

  [[nodiscard]] const std::vector<SyntheticStore>& stores() const { return stores_; }
  [[nodiscard]] std::vector<SyntheticStore>& stores() { return stores_; }
  [[nodiscard]] const PhaseStats& training_stats() const { return training_stats_; }
  /// Wall-clock seconds of training spent on distillation (Table 6).
  [[nodiscard]] double distill_seconds() const { return distill_seconds_; }
  [[nodiscard]] const std::set<int>& forgotten_classes() const { return forgotten_classes_; }
  [[nodiscard]] const std::set<int>& forgotten_clients() const { return forgotten_clients_; }

  /// Clears the forgotten-targets bookkeeping. For experiment harnesses that
  /// evaluate several *independent* requests against the same trained model
  /// (sequential requests in one history should NOT call this).
  void reset_forgotten() {
    forgotten_classes_.clear();
    forgotten_clients_.clear();
  }

  /// Records a target as forgotten without running any rounds — used when a
  /// restarted service replays its completed-request history onto a fresh
  /// coordinator before resuming an in-flight cycle.
  void mark_forgotten(const UnlearningRequest& request) {
    if (request.kind == UnlearningRequest::Kind::kClass) {
      forgotten_classes_.insert(request.target);
    } else {
      forgotten_clients_.insert(request.target);
    }
  }

  /// Toggles §3.3.1 recovery augmentation (used by the ablation bench; does
  /// not require retraining).
  void set_augment_recovery(bool enabled) { config_.augment_recovery = enabled; }

  /// Swaps the update-transport codec for subsequent phases (used by the
  /// accuracy-vs-compression sweep bench; does not require retraining).
  void set_transport(fl::TransportConfig transport) { config_.transport = transport; }

  /// Replaces the synthetic stores, e.g. with stores restored from a
  /// checkpoint (see core/checkpoint.h) — unlearning requests can then be
  /// served without retraining. One store per client is required.
  void load_stores(std::vector<SyntheticStore> stores);
  [[nodiscard]] int num_clients() const { return static_cast<int>(client_train_.size()); }
  [[nodiscard]] int num_classes() const { return client_train_.front().num_classes(); }
  [[nodiscard]] const std::vector<data::Dataset>& client_train() const { return client_train_; }
  [[nodiscard]] const QuickDropConfig& config() const { return config_; }

  /// Per-client synthetic forget counterparts S_f for a request (empty
  /// datasets for uninvolved clients).
  [[nodiscard]] std::vector<data::Dataset> forget_datasets(const UnlearningRequest& request) const;

  /// Batched S_f: the per-client union of every request's forget counterpart
  /// (a client targeted by a client-level request contributes its whole
  /// store exactly once, even when class-level requests overlap it).
  [[nodiscard]] std::vector<data::Dataset> forget_datasets(
      const std::vector<UnlearningRequest>& batch) const;

  /// Per-client recovery datasets: synthetic data of everything not
  /// currently forgotten (excluding `request`'s target), augmented per
  /// config. Pass nullptr to build the retain sets for the current
  /// forgotten-state only.
  [[nodiscard]] std::vector<data::Dataset> retain_datasets(
      const UnlearningRequest* request) const;

  /// Batched retain sets: excludes every already-forgotten target plus every
  /// target in `batch`.
  [[nodiscard]] std::vector<data::Dataset> retain_datasets(
      const std::vector<UnlearningRequest>& batch) const;

 private:
  /// Top-1 accuracy of scratch_model_ (already loaded) on a dataset; used by
  /// the verified-unlearning loop.
  [[nodiscard]] double forget_accuracy(const data::Dataset& dataset);

  /// Runs FedAvg rounds over per-client datasets with the given
  /// direction/lr; fills `stats`.
  /// Unlearning runs at 100% participation; recovery and relearning reuse
  /// the training participation rate (paper §4.5). `start_round`/`resume_rng`
  /// splice into a phase interrupted after `start_round` rounds (resume_rng
  /// is the serialized phase RNG from the matching cursor; nullptr derives a
  /// fresh tagged stream); `cursor_callback` exposes per-round cursors.
  nn::ModelState run_phase(const nn::ModelState& start,
                           const std::vector<data::Dataset>& client_data, int rounds, float lr,
                           nn::UpdateDirection direction, float participation, PhaseStats* stats,
                           const fl::RoundCallback& callback, int start_round = 0,
                           const std::vector<std::uint8_t>* resume_rng = nullptr,
                           const fl::RoundCursorCallback& cursor_callback = {});

  fl::ModelFactory factory_;
  std::vector<data::Dataset> client_train_;
  QuickDropConfig config_;
  Rng rng_;
  std::vector<SyntheticStore> stores_;
  std::unique_ptr<nn::Module> scratch_model_;
  nn::ModelState initial_state_;
  PhaseStats training_stats_;
  double distill_seconds_ = 0.0;
  std::set<int> forgotten_classes_;
  std::set<int> forgotten_clients_;
};

}  // namespace quickdrop::core
