#include "fl/resilient.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "fl/aggregator.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace quickdrop::fl {
namespace {

/// One upload that reached the server in time. With a quantizing transport
/// codec the client fills `wire` (the encoded delta) instead of `state`; the
/// server decodes (or probes, on the streaming path) when it collects the
/// slot.
struct Delivery {
  int client = 0;
  nn::ModelState state;
  std::vector<std::uint8_t> wire;
  double update_norm = 0.0;
};

/// Median of the finite update norms (0 when none are finite).
double finite_median_norm(const std::vector<Delivery>& delivered) {
  std::vector<double> norms;
  norms.reserve(delivered.size());
  for (const auto& d : delivered) {
    if (std::isfinite(d.update_norm)) norms.push_back(d.update_norm);
  }
  if (norms.empty()) return 0.0;
  const auto mid = norms.size() / 2;
  std::nth_element(norms.begin(), norms.begin() + static_cast<std::ptrdiff_t>(mid), norms.end());
  return norms[mid];
}

/// Why an update was quarantined, or nullptr if it is acceptable. Callers
/// pass finite_ok = !defense.validate_finite || <update is all-finite>, so
/// finiteness is only computed when the rule is on.
const char* rejection_reason(bool finite_ok, double update_norm, const DefenseConfig& defense,
                             double median_norm) {
  if (!finite_ok) return "non-finite values";
  if (defense.max_update_norm > 0.0f &&
      !(update_norm <= static_cast<double>(defense.max_update_norm))) {
    return "update norm above absolute cap";
  }
  if (defense.norm_outlier_multiplier > 0.0f && median_norm > 0.0 &&
      !(update_norm <= static_cast<double>(defense.norm_outlier_multiplier) * median_norm)) {
    return "update norm outlier";
  }
  return nullptr;
}

}  // namespace

nn::ModelState run_resilient(nn::Module& model, nn::ModelState global,
                             const std::vector<data::Dataset>& client_data, ClientUpdate& update,
                             const ResilientConfig& config, Rng& rng, CostMeter& cost,
                             const RoundCallback& callback,
                             const ClientStateCallback& client_callback,
                             const RoundCursorCallback& cursor_callback) {
  if (config.rounds < 0 || !std::isfinite(config.participation) ||
      config.participation <= 0.0f || config.participation > 1.0f ||
      config.start_round < 0 || config.start_round > config.rounds) {
    throw std::invalid_argument("run_resilient: bad config");
  }
  config.defense.validate();
  std::vector<int> eligible;
  for (std::size_t i = 0; i < client_data.size(); ++i) {
    if (!client_data[i].empty()) eligible.push_back(static_cast<int>(i));
  }
  if (eligible.empty()) throw std::invalid_argument("run_resilient: no client has data");
  if (global.empty()) throw std::invalid_argument("run_resilient: empty global state");

  // Per-worker scratch models for the concurrent client phase, built lazily
  // (serially, on this thread) and reused across rounds.
  std::vector<std::unique_ptr<nn::Module>> worker_models;

  // One layout shared by the global and every client upload: snapshots reuse
  // it instead of re-deriving a manifest per client per round, and the
  // aggregation kernels hit the pointer-equality fast path when they check
  // compatibility.
  const auto layout = global.layout();

  // The streaming aggregator, reused (reset) across rounds. The norm-outlier
  // rule is the one validation that needs the whole cohort's norms before
  // any accept/reject decision, so it forces buffering; every other defense
  // is per-update and streams. Both modes fold accepted updates in cohort
  // order through this aggregator, so they agree bit-for-bit.
  Aggregator agg(layout);
  const bool streaming = !(config.defense.norm_outlier_multiplier > 0.0f);

  for (int round = config.start_round; round < config.rounds; ++round) {
    for (int attempt = 0; attempt < config.defense.max_round_attempts; ++attempt) {
      if (attempt > 0) {
        ++cost.retried_rounds;
        cost.sim_backoff_seconds += static_cast<double>(config.defense.retry_backoff_seconds) *
                                    static_cast<double>(1LL << (attempt - 1));
        QD_LOG_WARN << "round " << round << ": retrying (attempt " << attempt + 1 << "/"
                    << config.defense.max_round_attempts << ") after quorum failure";
      }

      // Sample this attempt's cohort.
      std::vector<int> cohort = eligible;
      if (config.participation < 1.0f) {
        const int k = std::max(1, static_cast<int>(static_cast<float>(eligible.size()) *
                                                   config.participation));
        const auto picks = rng.sample_without_replacement(static_cast<int>(eligible.size()), k);
        cohort.clear();
        for (const int p : picks) cohort.push_back(eligible[static_cast<std::size_t>(p)]);
      }
      const int sampled = static_cast<int>(cohort.size());

      agg.reset();
      std::int64_t accepted_count = 0;
      std::int64_t accepted_samples = 0;
      std::vector<Delivery> delivered;  // buffered mode only
      if (!streaming) delivered.reserve(cohort.size());

      const int pool_threads = ThreadPool::global().threads();
      const int n_workers = static_cast<int>(
          std::min<std::size_t>(static_cast<std::size_t>(pool_threads), cohort.size()));
      const bool parallel = config.client_model_factory && n_workers > 1;
      if (parallel) {
        while (static_cast<int>(worker_models.size()) < n_workers) {
          worker_models.push_back(config.client_model_factory());
        }
      }

      // Accepts one delivery on the streaming path: validate with the
      // per-update rules, surface it to the client callback, fold it into
      // the aggregator and forget it. Wire-framed deliveries are probed
      // (decoded block-by-block, no fp32 state materialized) unless the
      // client callback needs the full state anyway.
      auto stream_delivery = [&](Delivery&& d) {
        const char* reason = nullptr;
        bool fold_wire = false;
        if (!d.wire.empty() && !client_callback) {
          Aggregator::WireProbe probe;
          try {
            probe = agg.probe_quantized(d.wire, global);
          } catch (const nn::StateError&) {
            ++cost.quarantined_updates;
            QD_LOG_WARN << "round " << round << ": quarantined update from client " << d.client
                        << " (undecodable transport frame)";
            return;
          }
          d.update_norm = probe.norm;
          reason = rejection_reason(!config.defense.validate_finite || probe.finite,
                                    d.update_norm, config.defense, 0.0);
          fold_wire = true;
        } else {
          if (!d.wire.empty()) {
            // The client callback needs the materialized local state, so
            // decode the frame the buffered way for this one delivery.
            try {
              const nn::ModelState delta = decode_delta(d.wire, layout);
              d.state = global;
              nn::axpy(d.state, delta, 1.0f);
            } catch (const nn::StateError&) {
              ++cost.quarantined_updates;
              QD_LOG_WARN << "round " << round << ": quarantined update from client " << d.client
                          << " (undecodable transport frame)";
              return;
            }
          }
          d.update_norm = nn::l2_distance(d.state, global);
          reason = rejection_reason(!config.defense.validate_finite || nn::all_finite(d.state),
                                    d.update_norm, config.defense, 0.0);
        }
        if (reason != nullptr) {
          ++cost.quarantined_updates;
          QD_LOG_WARN << "round " << round << ": quarantined update from client " << d.client
                      << " (" << reason << ")";
          return;
        }
        const auto samples = client_data[static_cast<std::size_t>(d.client)].size();
        // Raw sample-count weights: the normalizer (total accepted samples)
        // is only known after the last fold, so finalize applies it once.
        if (fold_wire) {
          agg.fold_quantized(d.client, d.wire, global, static_cast<double>(samples));
        } else {
          if (client_callback) client_callback(round, d.client, d.state, global);
          agg.fold(d.client, d.state, static_cast<double>(samples));
        }
        ++accepted_count;
        accepted_samples += samples;
      };

      // Client phase: run local updates, apply injected faults. Client c's
      // work depends only on (round, attempt, c) and the global state — its
      // RNG is tag-split, never drawn from a shared stream — so clients can
      // execute in any order, including concurrently. Each client writes its
      // delivery slot and a private CostMeter; both are merged in cohort
      // order below, keeping every downstream number independent of the
      // thread count. Streaming mode processes the cohort in bounded waves,
      // folding each wave's accepted updates before the next wave runs, so
      // at most one wave of states is alive at a time; buffered mode (norm
      // outlier on) is a single whole-cohort wave.
      const std::size_t wave_size =
          streaming ? std::max<std::size_t>(1, parallel ? 4 * static_cast<std::size_t>(n_workers)
                                                        : 1)
                    : cohort.size();
      for (std::size_t wave_begin = 0; wave_begin < cohort.size(); wave_begin += wave_size) {
        const std::size_t wave_end = std::min(cohort.size(), wave_begin + wave_size);
        const std::size_t wave_len = wave_end - wave_begin;
        std::vector<std::optional<Delivery>> slots(wave_len);
        std::vector<CostMeter> slot_costs(wave_len);
        auto run_client = [&](std::size_t idx, nn::Module& client_model) {
          const int c = cohort[idx];
          CostMeter& ccost = slot_costs[idx - wave_begin];
          const FaultKind fault = config.faults.fault_for(round, attempt, c);
          if (fault == FaultKind::kCrash) {
            ++ccost.crashed_clients;
            QD_LOG_DEBUG << "round " << round << ": client " << c << " crashed before upload";
            return;
          }
          nn::load_state(client_model, global);
          Rng client_rng = rng.split(static_cast<std::uint64_t>(round) * 100003ULL +
                                     static_cast<std::uint64_t>(c));
          update.run(client_model, client_data[static_cast<std::size_t>(c)], round, c, client_rng,
                     ccost);
          nn::ModelState state{layout};
          nn::snapshot_into(client_model, state);
          if (fault == FaultKind::kStraggler) {
            // Compute was spent and the model was downloaded, but the upload
            // missed the simulated round deadline.
            ++ccost.straggler_timeouts;
            ccost.add_exchange(0, nn::state_bytes(global));
            QD_LOG_WARN << "round " << round << ": client " << c
                        << " straggled past the round deadline; update discarded";
            return;
          }
          if (fault != FaultKind::kNone) {
            Rng fault_rng = Rng(config.faults.seed() ^ 0xFA017C0DEULL)
                                .split(static_cast<std::uint64_t>(round) * 611953ULL +
                                       static_cast<std::uint64_t>(c));
            apply_corruption(fault, state, global, fault_rng);
          }
          Delivery d;
          d.client = c;
          if (config.transport.codec != Codec::kNone) {
            // Quantized transport: ship the encoded delta against the round's
            // global state. Encoding happens after fault corruption, so a
            // corrupted update crosses the wire the way a real faulty client
            // would send it (non-finite blocks ride the raw-block escape and
            // reach server-side validation bit-exactly).
            const nn::ModelState delta = nn::subtract(state, global);
            d.wire = encode_delta(delta, config.transport.codec);
            ccost.add_exchange(static_cast<std::int64_t>(d.wire.size()),
                               nn::state_bytes(global));
          } else {
            ccost.add_exchange(nn::state_bytes(state), nn::state_bytes(global));
            d.state = std::move(state);
          }
          slots[idx - wave_begin] = std::move(d);
        };

        if (parallel) {
          // Workers claim clients largest-first from one shared cursor, so
          // the heavy clients start early and the light ones fill the tail;
          // ties keep cohort order. Which worker runs a client does not
          // change its bits (each client loads the global state first).
          std::vector<std::size_t> claim_order(wave_len);
          for (std::size_t i = 0; i < wave_len; ++i) claim_order[i] = wave_begin + i;
          std::stable_sort(claim_order.begin(), claim_order.end(),
                           [&](std::size_t x, std::size_t y) {
                             return client_data[static_cast<std::size_t>(cohort[x])].size() >
                                    client_data[static_cast<std::size_t>(cohort[y])].size();
                           });
          std::atomic<std::size_t> next{0};
          // qdlint: shared-write(workers write disjoint slots/slot_costs entries; each owns its model)
          ThreadPool::global().run_chunks(n_workers, [&](int w) {
            for (std::size_t i = next.fetch_add(1); i < wave_len; i = next.fetch_add(1)) {
              run_client(claim_order[i], *worker_models[static_cast<std::size_t>(w)]);
            }
          });
        } else {
          for (std::size_t idx = wave_begin; idx < wave_end; ++idx) run_client(idx, model);
        }

        // Collect the wave in cohort order.
        for (std::size_t idx = wave_begin; idx < wave_end; ++idx) {
          cost += slot_costs[idx - wave_begin];
          if (!slots[idx - wave_begin]) continue;
          Delivery d = std::move(*slots[idx - wave_begin]);
          if (streaming) {
            stream_delivery(std::move(d));
            continue;
          }
          if (!d.wire.empty()) {
            // Serial decode in cohort order: reconstruct global + delta into
            // the delivery before validation sees it. A frame that fails to
            // decode is quarantined exactly like a corrupted raw upload.
            try {
              const nn::ModelState delta = decode_delta(d.wire, layout);
              d.state = global;
              nn::axpy(d.state, delta, 1.0f);
            } catch (const nn::StateError&) {
              ++cost.quarantined_updates;
              QD_LOG_WARN << "round " << round << ": quarantined update from client " << d.client
                          << " (undecodable transport frame)";
              continue;
            }
            d.wire.clear();
            d.wire.shrink_to_fit();
          }
          delivered.push_back(std::move(d));
        }
      }

      if (!streaming) {
        // Server phase (buffered): validate deliveries before they touch the
        // aggregate. l2_distance walks both flat buffers directly — no
        // difference state is materialized per upload.
        for (auto& d : delivered) d.update_norm = nn::l2_distance(d.state, global);
        const double median_norm = finite_median_norm(delivered);
        for (auto& d : delivered) {
          // The outlier rule needs a crowd to define "normal"; with fewer
          // than 3 deliveries only the absolute checks apply.
          const char* reason = rejection_reason(
              !config.defense.validate_finite || nn::all_finite(d.state), d.update_norm,
              config.defense, delivered.size() >= 3 ? median_norm : 0.0);
          if (reason != nullptr) {
            ++cost.quarantined_updates;
            QD_LOG_WARN << "round " << round << ": quarantined update from client " << d.client
                        << " (" << reason << ")";
            continue;
          }
          if (client_callback) client_callback(round, d.client, d.state, global);
          const auto samples = client_data[static_cast<std::size_t>(d.client)].size();
          agg.fold(d.client, d.state, static_cast<double>(samples));
          ++accepted_count;
          accepted_samples += samples;
        }
        delivered.clear();
      }

      // Quorum: how many valid updates does this round need?
      const int required =
          std::max(1, config.defense.min_quorum > 0.0f
                          ? static_cast<int>(std::ceil(static_cast<double>(config.defense.min_quorum) *
                                                       static_cast<double>(sampled)))
                          : 1);
      if (accepted_count < required) {
        if (attempt + 1 < config.defense.max_round_attempts) continue;  // retry
        // Out of attempts: the round is lost, the global state carries over.
        ++cost.rounds;
        ++cost.lost_rounds;
        QD_LOG_WARN << "round " << round << ": lost (" << accepted_count << "/" << required
                    << " valid updates after " << config.defense.max_round_attempts
                    << " attempt(s))";
        break;
      }

      // Root merge: one O(params) collapse + scale by the now-known weight
      // normalizer. The folds carried raw |D_c| weights, so scaling by
      // 1 / accepted_samples yields the same |D_c|/|D| FedAvg weighting.
      global = agg.finalize(1.0 / static_cast<double>(accepted_samples));
      if (!nn::all_finite(global)) {
        // Validation rejects non-finite uploads and finite ones cannot
        // aggregate to NaN/Inf unless the weights overflow — either way the
        // invariant is broken and continuing would poison every later round.
        throw std::runtime_error("run_resilient: aggregated global state is non-finite");
      }
      ++cost.rounds;
      break;
    }
    if (callback) callback(round, global);
    if (cursor_callback) cursor_callback(round, global, rng);
  }
  return global;
}

std::int64_t total_samples(const std::vector<data::Dataset>& client_data) {
  std::int64_t n = 0;
  for (const auto& d : client_data) n += d.size();
  return n;
}

}  // namespace quickdrop::fl
