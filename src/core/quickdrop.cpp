#include "core/quickdrop.h"

#include <algorithm>
#include <stdexcept>

#include "tensor/kernels.h"
#include "util/timer.h"

namespace quickdrop::core {

QuickDrop::QuickDrop(fl::ModelFactory factory, std::vector<data::Dataset> client_train,
                     QuickDropConfig config, std::uint64_t seed)
    : factory_(std::move(factory)),
      client_train_(std::move(client_train)),
      config_(config),
      rng_(seed) {
  if (client_train_.empty()) throw std::invalid_argument("QuickDrop: no clients");
  scratch_model_ = factory_();
  initial_state_ = nn::state_of(*scratch_model_);
  Rng store_rng = rng_.split(0x5707);
  stores_.reserve(client_train_.size());
  for (std::size_t i = 0; i < client_train_.size(); ++i) {
    Rng client_rng = store_rng.split(i);
    stores_.emplace_back(client_train_[i], config_.scale, client_rng, config_.synthetic_init);
  }
}

nn::ModelState QuickDrop::train(const fl::RoundCallback& callback,
                                const fl::ClientStateCallback& client_callback,
                                const fl::RoundCursorCallback& cursor_callback,
                                const TrainResume* resume) {
  const Timer timer;
  DistillingLocalUpdate update(stores_, config_.local_steps, config_.batch_size,
                               config_.train_lr, config_.distill);
  fl::ResilientConfig fed{.rounds = config_.fl_rounds, .participation = config_.participation};
  fed.faults = config_.faults;
  fed.defense = config_.defense;
  fed.transport = config_.transport;
  // Concurrent clients, except when fine-tuning follows: finetune_store
  // re-initializes models from the shared factory RNG, and the number of
  // factory calls the parallel engine makes depends on the thread count —
  // running serially here keeps that stream position (and therefore the
  // fine-tuned stores) bit-identical at any thread count.
  if (config_.finetune.outer_steps == 0) fed.client_model_factory = factory_;
  nn::ModelState start = initial_state_;
  Rng fed_rng = rng_.split(0xF1);
  if (resume) {
    if (resume->rounds_done < 0 || resume->rounds_done > config_.fl_rounds) {
      throw std::invalid_argument("QuickDrop::train: resume cursor out of range");
    }
    fed.start_round = resume->rounds_done;
    start = resume->global;
    fed_rng = Rng::deserialize(resume->rng_state);
  }
  nn::ModelState global =
      fl::run_resilient(*scratch_model_, std::move(start), client_train_, update, fed, fed_rng,
                        training_stats_.cost, callback, client_callback, cursor_callback);
  distill_seconds_ = update.distill_seconds();

  // Optional fine-tuning of every client's synthetic store (§3.3.2).
  if (config_.finetune.outer_steps > 0) {
    const Timer ft_timer;
    Rng ft_rng = rng_.split(0xF7);
    for (std::size_t i = 0; i < stores_.size(); ++i) {
      Rng client_rng = ft_rng.split(i);
      finetune_store(factory_, stores_[i], client_train_[i], config_.finetune, client_rng,
                     training_stats_.cost);
    }
    distill_seconds_ += ft_timer.seconds();
  }

  training_stats_.seconds = timer.seconds();
  training_stats_.rounds = config_.fl_rounds;
  training_stats_.data_size = fl::total_samples(client_train_);
  return global;
}

void QuickDrop::load_stores(std::vector<SyntheticStore> stores) {
  if (stores.size() != client_train_.size()) {
    throw std::invalid_argument("QuickDrop::load_stores: need one store per client");
  }
  stores_ = std::move(stores);
}

nn::ModelState QuickDrop::initial_state() const {
  return initial_state_;  // FlatState copies are deep
}

std::vector<data::Dataset> QuickDrop::forget_datasets(
    const std::vector<UnlearningRequest>& batch) const {
  std::set<int> classes, clients;
  for (const auto& request : batch) {
    (request.kind == UnlearningRequest::Kind::kClass ? classes : clients).insert(request.target);
  }
  const std::vector<int> class_list(classes.begin(), classes.end());
  std::vector<data::Dataset> out;
  out.reserve(stores_.size());
  for (std::size_t i = 0; i < stores_.size(); ++i) {
    if (clients.count(static_cast<int>(i))) {
      // S_f includes the whole store of a targeted client (which already
      // covers any class-level targets it holds).
      out.push_back(stores_[i].to_dataset());
    } else {
      // S_f := union_c S_i^c over the batch's class targets.
      out.push_back(stores_[i].to_dataset(class_list));
    }
  }
  return out;
}

std::vector<data::Dataset> QuickDrop::retain_datasets(
    const std::vector<UnlearningRequest>& batch) const {
  std::set<int> dropped_classes = forgotten_classes_;
  std::set<int> dropped_clients = forgotten_clients_;
  for (const auto& request : batch) {
    (request.kind == UnlearningRequest::Kind::kClass ? dropped_classes : dropped_clients)
        .insert(request.target);
  }
  std::vector<data::Dataset> out;
  out.reserve(stores_.size());
  for (std::size_t i = 0; i < stores_.size(); ++i) {
    if (dropped_clients.count(static_cast<int>(i))) {
      out.push_back(data::Dataset(stores_[i].image_shape(), stores_[i].num_classes()));
      continue;
    }
    std::vector<int> classes;
    for (const int c : stores_[i].present_classes()) {
      if (!dropped_classes.count(c)) classes.push_back(c);
    }
    out.push_back(config_.augment_recovery ? stores_[i].augmented_dataset(classes)
                                           : stores_[i].to_dataset(classes));
  }
  return out;
}

double QuickDrop::forget_accuracy(const data::Dataset& dataset) {
  if (dataset.empty()) return 0.0;
  std::vector<int> rows(static_cast<std::size_t>(dataset.size()));
  for (int i = 0; i < dataset.size(); ++i) rows[static_cast<std::size_t>(i)] = i;
  auto [images, labels] = dataset.batch(rows);
  const Tensor logits = scratch_model_->predict(images);
  const auto preds = kernels::argmax_rows(logits);
  int correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) correct += preds[i] == labels[i];
  return static_cast<double>(correct) / static_cast<double>(labels.size());
}

nn::ModelState QuickDrop::run_rounds(const nn::ModelState& start,
                                     const std::vector<data::Dataset>& client_data,
                                     int first_round, int end_round, float lr,
                                     nn::UpdateDirection direction, float participation, Rng& rng,
                                     PhaseStats& stats, const fl::RoundCallback& callback,
                                     const fl::RoundCursorCallback& cursor_callback) {
  fl::SgdLocalUpdate update(config_.unlearn_local_steps, config_.unlearn_batch_size, lr,
                            direction);
  fl::ResilientConfig fed{.rounds = end_round, .participation = participation};
  fed.faults = config_.faults;
  fed.defense = config_.defense;
  fed.transport = config_.transport;
  fed.start_round = first_round;
  fed.client_model_factory = factory_;
  nn::ModelState result = fl::run_resilient(*scratch_model_, start, client_data, update, fed, rng,
                                            stats.cost, callback, {}, cursor_callback);
  stats.rounds += end_round - first_round;
  stats.data_size = fl::total_samples(client_data);
  return result;
}

nn::ModelState QuickDrop::unlearn(const nn::ModelState& state, const UnlearningRequest& request,
                                  PhaseStats* unlearn_stats, PhaseStats* recovery_stats,
                                  const fl::RoundCallback& callback) {
  return unlearn_batch(state, {request}, unlearn_stats, recovery_stats, callback);
}

nn::ModelState QuickDrop::unlearn_batch(const nn::ModelState& state,
                                        const std::vector<UnlearningRequest>& batch,
                                        PhaseStats* unlearn_stats, PhaseStats* recovery_stats,
                                        const fl::RoundCallback& callback,
                                        const UnlearnCursorCallback& cursor_callback,
                                        const UnlearnCursor* resume) {
  if (batch.empty()) throw std::invalid_argument("QuickDrop::unlearn: empty request batch");
  if (resume && ((resume->phase != UnlearnCursor::kPhaseUnlearn &&
                  resume->phase != UnlearnCursor::kPhaseRecover) ||
                 resume->rng_state.empty())) {
    throw std::invalid_argument("QuickDrop::unlearn: resume cursor needs a known phase and "
                                "its phase RNG state");
  }
  const bool resume_recovery = resume && resume->phase == UnlearnCursor::kPhaseRecover;
  // Each phase starts from the same tagged stream; a resume cursor carries
  // its phase's stream as it stood entering the next round.
  auto phase_rng = [&](int phase) {
    return resume && resume->phase == phase ? Rng::deserialize(resume->rng_state)
                                            : rng_.split(0xE0);
  };
  auto report_cursor = [&](int phase) -> fl::RoundCursorCallback {
    if (!cursor_callback) return {};
    return [&cursor_callback, phase](int round, const nn::ModelState& s, const Rng& rng) {
      cursor_callback(
          UnlearnCursor{.phase = phase, .rounds_done = round + 1, .rng_state = rng.serialize()},
          s);
    };
  };

  // Unlearning rounds: SGA on the synthetic forget counterpart S_f (the
  // per-client union over the batch).
  const auto forget = forget_datasets(batch);
  if (fl::total_samples(forget) == 0) {
    std::string targets;
    for (const auto& request : batch) {
      targets += (targets.empty() ? "" : ", ") + request.to_string();
    }
    throw std::invalid_argument("QuickDrop::unlearn: no synthetic data for " + targets);
  }

  nn::ModelState current = state;
  PhaseStats sga;
  if (!resume_recovery) {
    // One FedAvg phase, one round at a time: round i runs as round i of the
    // phase, so a lost round is followed by the next round, not replayed.
    // Verified unlearning (max_unlearn_rounds > unlearn_rounds) checks the
    // synthetic forget set between rounds once the minimum rounds are done
    // and stops as soon as it is erased; a phase that runs out of rounds
    // measures the model it ended with, so the miss is reported.
    const Timer timer;
    const int max_rounds = std::max(config_.unlearn_rounds, config_.max_unlearn_rounds);
    data::Dataset forget_union(forget.front().image_shape(), forget.front().num_classes());
    for (const auto& d : forget) {
      if (max_rounds > config_.unlearn_rounds && !d.empty()) {
        forget_union = forget_union.empty() ? d : data::Dataset::concat(forget_union, d);
      }
    }
    Rng rng = phase_rng(UnlearnCursor::kPhaseUnlearn);
    const auto sga_cursor = report_cursor(UnlearnCursor::kPhaseUnlearn);
    const auto check = [&] {
      nn::load_state(*scratch_model_, current);
      sga.forget_accuracy = forget_accuracy(forget_union);
      sga.target_reached = *sga.forget_accuracy <= config_.unlearn_target_accuracy;
      return sga.target_reached;
    };
    for (int round = resume ? resume->rounds_done : 0; round < max_rounds; ++round) {
      if (round >= config_.unlearn_rounds && check()) break;
      current = run_rounds(current, forget, round, round + 1, config_.unlearn_lr,
                           nn::UpdateDirection::kAscent, 1.0f, rng, sga, callback, sga_cursor);
    }
    if (max_rounds > config_.unlearn_rounds && !sga.target_reached) check();
    sga.seconds = timer.seconds();
    sga.data_size = fl::total_samples(forget);
  }
  if (unlearn_stats) *unlearn_stats = sga;

  // Recovery rounds: SGD on the augmented synthetic retain sets.
  const auto retain = retain_datasets(batch);
  if (fl::total_samples(retain) > 0) {
    const Timer timer;
    PhaseStats recovery;
    Rng rng = phase_rng(UnlearnCursor::kPhaseRecover);
    current = run_rounds(current, retain, resume_recovery ? resume->rounds_done : 0,
                         config_.recovery_rounds, config_.recover_lr,
                         nn::UpdateDirection::kDescent, config_.participation, rng, recovery,
                         callback, report_cursor(UnlearnCursor::kPhaseRecover));
    recovery.seconds = timer.seconds();
    if (recovery_stats) *recovery_stats = recovery;
  }

  for (const auto& request : batch) mark_forgotten(request);
  return current;
}

nn::ModelState QuickDrop::relearn(const nn::ModelState& state, const UnlearningRequest& request,
                                  PhaseStats* stats) {
  const auto forget = forget_datasets({request});
  if (fl::total_samples(forget) == 0) {
    throw std::invalid_argument("QuickDrop::relearn: no synthetic data for " +
                                request.to_string());
  }
  const Timer timer;
  PhaseStats relearn;
  Rng rng = rng_.split(0xE0);
  nn::ModelState current = run_rounds(state, forget, 0, config_.relearn_rounds,
                                      config_.relearn_lr, nn::UpdateDirection::kDescent,
                                      config_.participation, rng, relearn, {});
  relearn.seconds = timer.seconds();
  if (stats) *stats = relearn;
  if (request.kind == UnlearningRequest::Kind::kClass) {
    forgotten_classes_.erase(request.target);
  } else {
    forgotten_clients_.erase(request.target);
  }
  return current;
}

}  // namespace quickdrop::core
