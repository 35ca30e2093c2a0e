// quickdrop_cli — end-to-end federated unlearning from the command line.
//
//   quickdrop_cli train   --dataset cifar10 --clients 10 --alpha 0.1
//                         --rounds 30 --scale 10 --out model.qdcp
//   quickdrop_cli eval    --checkpoint model.qdcp
//   quickdrop_cli unlearn --checkpoint model.qdcp --class 9 --out fixed.qdcp
//   quickdrop_cli unlearn --checkpoint model.qdcp --client 3 --out fixed.qdcp
//   quickdrop_cli relearn --checkpoint fixed.qdcp --class 9 --out back.qdcp
//   quickdrop_cli inspect --checkpoint model.qdcp
//   quickdrop_cli serve   --checkpoint model.qdcp --requests 6 --arrival-rate 25
//                         --policy coalesce --json service.json
//   quickdrop_cli serve   --checkpoint model.qdcp --trace trace.txt --policy fifo
//
// Fault tolerance: `train` accepts --fault-crash/--fault-straggler/
// --fault-corrupt/--fault-stale rates plus --quorum/--max-attempts defenses
// (all persisted in the checkpoint metadata), --checkpoint-every K to commit a
// resumable partial checkpoint every K rounds, and --resume to continue a
// killed run from its last completed round.
//
// Every checkpoint file is a crash-safe store (store/store.h): each command
// commits its result as the record keyed round = the federation's rounds, and
// `train --checkpoint-every` adds one record per partial round. A command that
// starts a new history (train without --resume, unlearn, relearn, serve --out)
// drops the output file's old records in the same commit, so a crash at any
// point leaves either the old deployment or the new one.
//
// Checkpoints are self-describing: train embeds the federation configuration
// (dataset, clients, partition, seeds, model geometry, fault model) in the
// checkpoint metadata, and the other commands rebuild the identical
// federation from it — the synthetic data rides along in the file, so
// unlearning never touches the original training data.
#include <cstdio>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/checkpoint.h"
#include "core/quickdrop.h"
#include "fl/quantize.h"
#include "net/api.h"
#include "net/replay.h"
#include "net/socket.h"
#include "serve/options.h"
#include "serve/service.h"
#include "store/store.h"
#include "util/atomic_file.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "metrics/evaluate.h"
#include "nn/convnet.h"
#include "util/cli.h"
#include "util/logging.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace qd = quickdrop;

namespace {

/// Federation parameters, embeddable in checkpoint metadata.
struct FedSpec {
  std::string dataset = "cifar10";
  int clients = 10;
  double alpha = 0.1;
  bool iid = false;
  int rounds = 30;
  int local_steps = 5;
  int batch = 32;
  double train_lr = 0.05;
  int scale = 10;
  int width = 16;
  int depth = 2;
  std::uint64_t seed = 42;

  // Fault model & defenses (fl/faults.h), persisted so resumed runs and
  // later unlearn/relearn phases replay the identical scenario.
  double fault_crash = 0.0;
  double fault_straggler = 0.0;
  double fault_corrupt = 0.0;  ///< split evenly across NaN/Inf/exploded-norm
  double fault_stale = 0.0;
  std::uint64_t fault_seed = 7;
  double quorum = 0.0;
  int max_attempts = 1;
  double outlier_mult = 8.0;

  /// Client→server update transport codec ("off", "int8" or "bf16"),
  /// persisted so serve/unlearn/relearn phases replay the training
  /// transport. Validated eagerly in from_flags/from_metadata.
  std::string quantize = "off";

  static FedSpec from_flags(qd::CliFlags& flags) {
    FedSpec s;
    s.dataset = flags.get_string("dataset", s.dataset);
    s.clients = flags.get_int("clients", s.clients);
    s.alpha = flags.get_double("alpha", s.alpha);
    s.iid = flags.get_bool("iid", s.iid);
    s.rounds = flags.get_int("rounds", s.rounds);
    s.local_steps = flags.get_int("local-steps", s.local_steps);
    s.batch = flags.get_int("batch", s.batch);
    s.train_lr = flags.get_double("train-lr", s.train_lr);
    s.scale = flags.get_int("scale", s.scale);
    s.width = flags.get_int("width", s.width);
    s.depth = flags.get_int("depth", s.depth);
    s.seed = static_cast<std::uint64_t>(flags.get_int("seed", static_cast<int>(s.seed)));
    s.fault_crash = flags.get_double("fault-crash", s.fault_crash);
    s.fault_straggler = flags.get_double("fault-straggler", s.fault_straggler);
    s.fault_corrupt = flags.get_double("fault-corrupt", s.fault_corrupt);
    s.fault_stale = flags.get_double("fault-stale", s.fault_stale);
    s.fault_seed =
        static_cast<std::uint64_t>(flags.get_int("fault-seed", static_cast<int>(s.fault_seed)));
    s.quorum = flags.get_double("quorum", s.quorum);
    s.max_attempts = flags.get_int("max-attempts", s.max_attempts);
    s.outlier_mult = flags.get_double("outlier-mult", s.outlier_mult);
    s.quantize = flags.get_string("quantize-updates", s.quantize);
    qd::fl::codec_from_string(s.quantize);  // validate early, with a clear error
    return s;
  }

  [[nodiscard]] std::map<std::string, std::string> to_metadata() const {
    return {{"dataset", dataset},
            {"clients", std::to_string(clients)},
            {"alpha", qd::fmt_double(alpha, 6)},
            {"iid", iid ? "1" : "0"},
            {"rounds", std::to_string(rounds)},
            {"local_steps", std::to_string(local_steps)},
            {"batch", std::to_string(batch)},
            {"train_lr", qd::fmt_double(train_lr, 6)},
            {"scale", std::to_string(scale)},
            {"width", std::to_string(width)},
            {"depth", std::to_string(depth)},
            {"seed", std::to_string(seed)},
            {"fault_crash", qd::fmt_double(fault_crash, 6)},
            {"fault_straggler", qd::fmt_double(fault_straggler, 6)},
            {"fault_corrupt", qd::fmt_double(fault_corrupt, 6)},
            {"fault_stale", qd::fmt_double(fault_stale, 6)},
            {"fault_seed", std::to_string(fault_seed)},
            {"quorum", qd::fmt_double(quorum, 6)},
            {"max_attempts", std::to_string(max_attempts)},
            {"outlier_mult", qd::fmt_double(outlier_mult, 6)},
            {"quantize", quantize}};
  }

  static FedSpec from_metadata(const std::map<std::string, std::string>& m) {
    FedSpec s;
    auto get = [&](const char* key) -> const std::string& {
      const auto it = m.find(key);
      if (it == m.end()) {
        throw std::invalid_argument(std::string("checkpoint metadata missing '") + key + "'");
      }
      return it->second;
    };
    s.dataset = get("dataset");
    s.clients = std::stoi(get("clients"));
    s.alpha = std::stod(get("alpha"));
    s.iid = get("iid") == "1";
    s.rounds = std::stoi(get("rounds"));
    s.local_steps = std::stoi(get("local_steps"));
    s.batch = std::stoi(get("batch"));
    s.train_lr = std::stod(get("train_lr"));
    s.scale = std::stoi(get("scale"));
    s.width = std::stoi(get("width"));
    s.depth = std::stoi(get("depth"));
    s.seed = std::stoull(get("seed"));
    s.fault_crash = std::stod(get("fault_crash"));
    s.fault_straggler = std::stod(get("fault_straggler"));
    s.fault_corrupt = std::stod(get("fault_corrupt"));
    s.fault_stale = std::stod(get("fault_stale"));
    s.fault_seed = std::stoull(get("fault_seed"));
    s.quorum = std::stod(get("quorum"));
    s.max_attempts = std::stoi(get("max_attempts"));
    s.outlier_mult = std::stod(get("outlier_mult"));
    s.quantize = get("quantize");
    qd::fl::codec_from_string(s.quantize);
    return s;
  }
};

/// Live federation rebuilt from a FedSpec.
struct Federation {
  FedSpec spec;
  qd::data::TrainTest data;
  qd::fl::ModelFactory factory;
  std::unique_ptr<qd::core::QuickDrop> quickdrop;
  std::unique_ptr<qd::nn::Module> eval_model;
};

Federation build(const FedSpec& spec) {
  Federation fed{.spec = spec,
                 .data = qd::data::make_synthetic(qd::data::spec_by_name(spec.dataset)),
                 .factory = {},
                 .quickdrop = nullptr,
                 .eval_model = nullptr};
  qd::Rng prng(spec.seed ^ 0x9A97);
  const auto partition =
      spec.iid ? qd::data::iid_partition(fed.data.train, spec.clients, prng)
               : qd::data::dirichlet_partition(fed.data.train, spec.clients,
                                               static_cast<float>(spec.alpha), prng);
  auto clients = qd::data::materialize(fed.data.train, partition);

  qd::nn::ConvNetConfig net;
  net.in_channels = static_cast<int>(fed.data.train.image_shape()[0]);
  net.image_size = static_cast<int>(fed.data.train.image_shape()[1]);
  net.num_classes = fed.data.train.num_classes();
  net.width = spec.width;
  net.depth = spec.depth;
  net.validate();
  auto mrng = std::make_shared<qd::Rng>(spec.seed ^ 0xDEED);
  fed.factory = [mrng, net] { return qd::nn::make_convnet(net, *mrng); };

  qd::core::QuickDropConfig cfg;
  cfg.fl_rounds = spec.rounds;
  cfg.local_steps = spec.local_steps;
  cfg.batch_size = spec.batch;
  cfg.train_lr = static_cast<float>(spec.train_lr);
  cfg.scale = spec.scale;
  cfg.unlearn_lr = 0.05f;
  cfg.recover_lr = 0.03f;
  cfg.max_unlearn_rounds = 4;  // verified unlearning
  qd::fl::FaultRates rates;
  rates.crash = static_cast<float>(spec.fault_crash);
  rates.straggler = static_cast<float>(spec.fault_straggler);
  rates.corrupt_nan = static_cast<float>(spec.fault_corrupt / 3.0);
  rates.corrupt_inf = static_cast<float>(spec.fault_corrupt / 3.0);
  rates.exploded_norm = static_cast<float>(spec.fault_corrupt / 3.0);
  rates.stale_update = static_cast<float>(spec.fault_stale);
  cfg.faults = qd::fl::FaultPlan(spec.fault_seed, rates);
  cfg.defense.norm_outlier_multiplier = static_cast<float>(spec.outlier_mult);
  cfg.defense.min_quorum = static_cast<float>(spec.quorum);
  cfg.defense.max_round_attempts = spec.max_attempts;
  cfg.transport.codec = qd::fl::codec_from_string(spec.quantize);
  fed.quickdrop = std::make_unique<qd::core::QuickDrop>(fed.factory, std::move(clients), cfg,
                                                        spec.seed);
  fed.eval_model = fed.factory();
  return fed;
}

void print_eval(Federation& fed, const qd::nn::ModelState& state) {
  qd::nn::load_state(*fed.eval_model, state);
  std::printf("test accuracy: %s\n",
              qd::fmt_percent(qd::metrics::accuracy(*fed.eval_model, fed.data.test)).c_str());
  const auto pc = qd::metrics::per_class_accuracy(*fed.eval_model, fed.data.test);
  std::printf("per class:");
  for (std::size_t c = 0; c < pc.size(); ++c) {
    std::printf(" c%zu=%s", c, qd::fmt_percent(pc[c], 1).c_str());
  }
  std::printf("\n");
}

qd::core::UnlearningRequest request_from_flags(qd::CliFlags& flags) {
  const int class_id = flags.get_int("class", -1);
  const int client_id = flags.get_int("client", -1);
  if ((class_id >= 0) == (client_id >= 0)) {
    throw std::invalid_argument("specify exactly one of --class or --client");
  }
  return class_id >= 0 ? qd::core::UnlearningRequest::for_class(class_id)
                       : qd::core::UnlearningRequest::for_client(client_id);
}

/// Stages the erasure of every record in `store`. The erasure becomes durable
/// with the next commit, so until the new history's first record commits, the
/// file still loads the old deployment.
void start_over(qd::store::Store& store) {
  for (const auto& key : store.keys()) store.erase(key);
}

void print_store_stats(qd::store::Store& store) {
  const auto stats = store.stats();
  std::printf("store file: seq %llu, %llu records, %llu live / %llu file pages\n",
              static_cast<unsigned long long>(stats.committed_seq),
              static_cast<unsigned long long>(stats.records),
              static_cast<unsigned long long>(stats.live_pages),
              static_cast<unsigned long long>(stats.file_pages));
}

/// Commits `cp` as the final record (round = `rounds`) of `store`.
void commit_final(const qd::core::Checkpoint& cp, qd::store::Store& store, int rounds) {
  qd::core::save_checkpoint(cp, store, static_cast<std::uint64_t>(rounds));
  std::printf("checkpoint committed to %s\n", store.path().c_str());
  print_store_stats(store);
}

/// Writes `cp` as the only record of the store file at `path`.
void write_checkpoint(const qd::core::Checkpoint& cp, const std::string& path, int rounds) {
  qd::store::Store store(path);
  start_over(store);
  commit_final(cp, store, rounds);
}

int cmd_train(qd::CliFlags& flags) {
  auto spec = FedSpec::from_flags(flags);
  const auto out = flags.get_string("out", "model.qdcp");
  const int checkpoint_every = flags.get_int("checkpoint-every", 0);
  const bool resume = flags.get_bool("resume", false);
  flags.check_unused();

  // --resume: pick up the partial checkpoint written by --checkpoint-every.
  std::optional<qd::core::Checkpoint> partial;
  if (resume) {
    auto cp = qd::core::load_checkpoint(out);
    if (!cp.cursor || cp.cursor->phase != "train") {
      throw std::invalid_argument("--resume: " + out + " holds no in-flight training cursor");
    }
    spec = FedSpec::from_metadata(cp.metadata);  // the interrupted run's config wins
    partial = std::move(cp);
  }

  auto fed = build(spec);
  qd::core::TrainResume resume_point;
  const qd::core::TrainResume* resume_ptr = nullptr;
  if (partial) {
    fed.quickdrop->load_stores(qd::core::restore_stores(*partial));
    resume_point.global = partial->global;
    resume_point.rounds_done = partial->cursor->rounds_done;
    resume_point.rng_state = partial->cursor->rng_state;
    resume_ptr = &resume_point;
    std::printf("resuming training from round %d/%d...\n", resume_point.rounds_done,
                spec.rounds);
  } else {
    std::printf("training %d clients on %s for %d rounds (scale s=%d)...\n", spec.clients,
                spec.dataset.c_str(), spec.rounds, spec.scale);
  }

  // Every partial checkpoint is a committed transaction, rounds dedup
  // unchanged pages against each other, and a kill at any point reopens to
  // the last committed round. --resume continues the file's history; a fresh
  // run starts it over.
  qd::store::Store store(out);
  if (!resume) start_over(store);
  qd::fl::RoundCursorCallback cursor_cb;
  if (checkpoint_every > 0) {
    cursor_cb = [&](int round, const qd::nn::ModelState& state, const qd::Rng& rng) {
      const int done = round + 1;
      if (done % checkpoint_every != 0 || done >= spec.rounds) return;
      auto cp = qd::core::make_checkpoint(state, fed.quickdrop->stores());
      cp.metadata = spec.to_metadata();
      cp.cursor = qd::core::RoundCursor{"train", done, rng.serialize()};
      qd::core::save_checkpoint(cp, store, static_cast<std::uint64_t>(done));
      std::printf("  partial checkpoint at round %d committed to %s (seq %llu)\n", done,
                  out.c_str(), static_cast<unsigned long long>(store.committed_seq()));
    };
  }

  const auto state = fed.quickdrop->train({}, {}, cursor_cb, resume_ptr);
  print_eval(fed, state);
  const auto& cost = fed.quickdrop->training_stats().cost;
  if (cost.total_faults() > 0 || cost.lost_rounds > 0) {
    std::printf(
        "faults survived: %lld crashes, %lld stragglers, %lld quarantined, %lld retried "
        "rounds, %lld lost rounds\n",
        static_cast<long long>(cost.crashed_clients),
        static_cast<long long>(cost.straggler_timeouts),
        static_cast<long long>(cost.quarantined_updates),
        static_cast<long long>(cost.retried_rounds), static_cast<long long>(cost.lost_rounds));
  }
  auto cp = qd::core::make_checkpoint(state, fed.quickdrop->stores());
  cp.metadata = spec.to_metadata();
  commit_final(cp, store, spec.rounds);
  return 0;
}

/// Loads the checkpoint and rebuilds the matching federation (no training).
std::pair<Federation, qd::core::Checkpoint> load(qd::CliFlags& flags) {
  const auto path = flags.get_string("checkpoint", "model.qdcp");
  auto cp = qd::core::load_checkpoint(path);
  auto fed = build(FedSpec::from_metadata(cp.metadata));
  fed.quickdrop->load_stores(qd::core::restore_stores(cp));
  return {std::move(fed), std::move(cp)};
}

int cmd_eval(qd::CliFlags& flags) {
  auto [fed, cp] = load(flags);
  flags.check_unused();
  print_eval(fed, cp.global);
  return 0;
}

int cmd_inspect(qd::CliFlags& flags) {
  const auto path = flags.get_string("checkpoint", "model.qdcp");
  flags.check_unused();
  const auto cp = qd::core::load_checkpoint(path);  // refuses non-store files untouched
  qd::store::Store store(path);
  print_store_stats(store);
  std::printf("checkpoint %s\n", path.c_str());
  for (const auto& [key, value] : cp.metadata) std::printf("  %s = %s\n", key.c_str(), value.c_str());
  std::printf("  model parameters: %lld tensors, %lld bytes\n",
              static_cast<long long>(cp.global.size()),
              static_cast<long long>(qd::nn::state_bytes(cp.global)));
  std::int64_t synth = 0;
  for (const auto& client : cp.clients) {
    for (const auto& t : client.synthetic) synth += t.dim(0) > 0 ? t.dim(0) : 0;
  }
  std::printf("  clients: %zu, synthetic samples: %lld\n", cp.clients.size(),
              static_cast<long long>(synth));
  if (cp.cursor) {
    std::printf("  in-flight phase '%s': %d round(s) completed (resume with --resume)\n",
                cp.cursor->phase.c_str(), cp.cursor->rounds_done);
  }
  return 0;
}

int cmd_unlearn(qd::CliFlags& flags) {
  auto [fed, cp] = load(flags);
  const auto request = request_from_flags(flags);
  const auto out = flags.get_string("out", "unlearned.qdcp");
  flags.check_unused();
  std::printf("before unlearning %s:\n", request.to_string().c_str());
  print_eval(fed, cp.global);
  qd::core::PhaseStats us, rs;
  const auto state = fed.quickdrop->unlearn(cp.global, request, &us, &rs);
  std::printf("after unlearning (%.2fs unlearn + %.2fs recovery):\n", us.seconds, rs.seconds);
  print_eval(fed, state);
  auto new_cp = qd::core::make_checkpoint(state, fed.quickdrop->stores());
  new_cp.metadata = cp.metadata;
  write_checkpoint(new_cp, out, fed.spec.rounds);
  return 0;
}

int cmd_relearn(qd::CliFlags& flags) {
  auto [fed, cp] = load(flags);
  const auto request = request_from_flags(flags);
  const auto out = flags.get_string("out", "relearned.qdcp");
  flags.check_unused();
  qd::core::PhaseStats stats;
  const auto state = fed.quickdrop->relearn(cp.global, request, &stats);
  std::printf("after relearning %s (%.2fs):\n", request.to_string().c_str(), stats.seconds);
  print_eval(fed, state);
  auto new_cp = qd::core::make_checkpoint(state, fed.quickdrop->stores());
  new_cp.metadata = cp.metadata;
  write_checkpoint(new_cp, out, fed.spec.rounds);
  return 0;
}

// Replays (or generates) an unlearning request trace against a trained
// checkpoint through the serve/ stack. All reported latencies are simulated
// seconds from the deterministic cost model, so --json output is bitwise
// reproducible at any --threads count — including over the loopback wire
// transport, whose report differs from the in-process one only in the
// "transport"/"wire_"/"net_" overlay lines.
int cmd_serve(qd::CliFlags& flags) {
  const auto options = qd::serve::parse_serve_options(flags);
  flags.check_unused();
  auto cp = qd::core::load_checkpoint(options.checkpoint);
  auto fed = build(FedSpec::from_metadata(cp.metadata));
  fed.quickdrop->load_stores(qd::core::restore_stores(cp));
  qd::serve::validate_resume_policy(options, cp.metadata);

  qd::serve::ServiceConfig config;
  config.policy = qd::serve::policy_from_name(options.policy);
  config.max_batch = options.max_batch;
  config.cost_model.seconds_per_round = options.sec_per_round;
  config.cost_model.seconds_per_sample_grad = options.sec_per_grad;
  config.wire_bytes_per_second = options.wire_bandwidth;
  std::shared_ptr<qd::core::QuickDrop> quickdrop = std::move(fed.quickdrop);

  // --listen: live HTTP front-end. Requests arrive over the wire, the sim
  // clock is the service clock, and unlearning cycles run while idle.
  if (options.listen_port > 0) {
    qd::net::ApiConfig api_config;
    config.transport = "http";
    api_config.service = config;
    if (!options.tenants_spec.empty()) {
      api_config.tenants = qd::net::parse_tenant_specs(options.tenants_spec);
    }
    qd::net::ApiService api(quickdrop, cp.global, api_config);
    qd::net::TcpListener listener(static_cast<std::uint16_t>(options.listen_port));
    std::printf("serving HTTP on port %u (%zu tenant(s); POST /unlearn, GET /request/:id, "
                "GET /metrics)\n",
                static_cast<unsigned>(listener.port()), api_config.tenants.size());
    qd::net::serve_http(
        listener, [&api](const qd::net::HttpRequest& request) { return api.handle(request); },
        [&api] { api.drain(); }, [] { return false; });
    return 0;  // unreachable: the loop runs until the process is killed
  }

  std::vector<qd::serve::ServiceRequest> trace;
  if (options.wire_listen_port > 0) {
    // The trace arrives over the wire: `replay --connect` streams it.
  } else if (!options.trace_path.empty()) {
    trace = qd::serve::load_trace(options.trace_path);
    std::printf("replaying %zu requests from %s\n", trace.size(), options.trace_path.c_str());
  } else {
    const std::uint64_t trace_seed =
        options.trace_seed_set ? options.trace_seed : fed.spec.seed + 1000;
    qd::serve::ArrivalConfig arrivals;
    arrivals.num_requests = options.requests;
    arrivals.mean_interarrival_seconds = options.arrival_rate_seconds;
    arrivals.client_fraction = options.client_fraction;
    arrivals.num_classes = fed.data.train.num_classes();
    arrivals.num_clients = fed.spec.clients;
    qd::Rng trace_rng(trace_seed);
    trace = qd::serve::generate_trace(arrivals, trace_rng);
    std::printf("generated %zu requests (mean inter-arrival %.0fs, trace seed %llu)\n",
                trace.size(), options.arrival_rate_seconds,
                static_cast<unsigned long long>(trace_seed));
  }
  if (!options.dump_trace.empty()) {
    qd::serve::save_trace(trace, options.dump_trace);
    std::printf("trace written to %s\n", options.dump_trace.c_str());
  }

  qd::serve::ServiceReport report;
  const qd::nn::ModelState* final_state = nullptr;
  std::optional<qd::serve::UnlearningService> service;
  std::optional<qd::net::NetReplaySession> session;
  if (options.wire_listen_port > 0) {
    // --wire-listen: the server side of `replay --connect`. One accepted
    // connection, one replayed trace, then the same report/checkpoint tail
    // as every other serve mode.
    qd::net::TcpListener listener(static_cast<std::uint16_t>(options.wire_listen_port));
    std::printf("wire replay listening on port %u (send with: quickdrop_cli replay "
                "--connect HOST:%u --checkpoint ... --trace ...)\n",
                static_cast<unsigned>(listener.port()), static_cast<unsigned>(listener.port()));
    const auto conn = listener.accept_conn();
    qd::net::ReplayConfig replay_config;
    config.transport = "tcp";
    replay_config.service = config;
    replay_config.codec = qd::fl::codec_from_string(fed.spec.quantize);
    session.emplace(quickdrop, cp.global, replay_config);
    report = session->run(*conn);
    final_state = &session->state();
  } else if (options.transport == "loopback") {
    // Single-threaded wire replay: loopback writes never block, so the
    // client sends the whole trace first, the session serves it, and the
    // acks + report are collected afterwards.
    const std::uint64_t layout_hash = quickdrop->state_layout()->hash();
    auto pair = qd::net::make_loopback();
    qd::net::replay_send_trace(*pair.client, trace, "cli", layout_hash);
    qd::net::ReplayConfig replay_config;
    config.transport = "loopback";
    replay_config.service = config;
    replay_config.codec = qd::fl::codec_from_string(fed.spec.quantize);
    session.emplace(quickdrop, cp.global, replay_config);
    report = session->run(*pair.server);
    const auto heard = qd::net::replay_collect(*pair.client, layout_hash);
    std::printf("loopback replay: %zu ack(s), %lld bytes down, %lld bytes up "
                "(state on wire: %lld raw / %lld quantized)\n",
                heard.acks.size(), static_cast<long long>(report.wire_request_bytes),
                static_cast<long long>(report.wire_ack_bytes),
                static_cast<long long>(report.wire_state_bytes_raw),
                static_cast<long long>(report.wire_state_bytes_quantized));
    final_state = &session->state();
  } else {
    service.emplace(quickdrop, cp.global, config);
    report = service->run(trace);
    final_state = &service->state();
  }

  qd::TextTable table;
  table.set_header({"id", "kind", "target", "wait(s)", "latency(s)", "net(s)", "batch", "cycle"});
  for (const auto& m : report.completed) {
    table.add_row({std::to_string(m.id), qd::serve::kind_name(m.kind), std::to_string(m.target),
                   qd::fmt_double(m.queue_wait(), 1), qd::fmt_double(m.latency(), 1),
                   qd::fmt_double(m.net_seconds, 3), std::to_string(m.batch_size),
                   std::to_string(m.cycle)});
  }
  std::printf("%s\n", table.render().c_str());
  for (const auto& rejection : report.rejected) {
    std::printf("rejected: %s (%s)\n", rejection.request.describe().c_str(),
                qd::serve::reject_reason_name(rejection.reason));
  }
  std::printf("policy=%s transport=%s: %zu served in %d cycle(s), %d FL rounds, p50 %.1fs, "
              "p95 %.1fs, queue-wait p95 %.1fs, net %.3fs, %.2f requests/hour\n",
              report.policy.c_str(), report.transport.c_str(), report.completed.size(),
              report.cycles, report.total_fl_rounds, report.latency_percentile(50.0),
              report.latency_percentile(95.0), report.queue_wait_percentile(95.0),
              report.net_seconds_total(), report.requests_per_hour());
  print_eval(fed, *final_state);

  if (!options.json_path.empty()) {
    qd::write_file_atomic(options.json_path, report.to_json());
    std::printf("metrics written to %s\n", options.json_path.c_str());
  }
  if (!options.out.empty()) {
    auto new_cp = qd::core::make_checkpoint(*final_state, quickdrop->stores());
    new_cp.metadata = cp.metadata;
    new_cp.metadata[qd::serve::kServePolicyKey] = options.policy;
    write_checkpoint(new_cp, options.out, fed.spec.rounds);
  }
  return 0;
}

// Streams a trace file to a running `serve --listen`-style replay endpoint…
// or, more precisely, to a NetReplaySession listening on a TCP port, and
// prints the acks plus the server's report.
int cmd_replay(qd::CliFlags& flags) {
  const auto options = qd::serve::parse_replay_options(flags);
  flags.check_unused();
  auto cp = qd::core::load_checkpoint(options.checkpoint);
  auto fed = build(FedSpec::from_metadata(cp.metadata));
  const std::uint64_t layout_hash = fed.quickdrop->state_layout()->hash();
  const auto trace = qd::serve::load_trace(options.trace_path);

  std::printf("replaying %zu requests to %s:%u as tenant '%s'\n", trace.size(),
              options.host.c_str(), static_cast<unsigned>(options.port),
              options.tenant.c_str());
  const auto conn = qd::net::tcp_connect(options.host, options.port);
  const auto result = qd::net::replay_trace_client(*conn, trace, options.tenant, layout_hash);
  std::size_t accepted = 0;
  for (const auto& ack : result.acks) accepted += ack.accepted ? 1 : 0;
  std::printf("%zu/%zu accepted, %lld bytes received\n", accepted, result.acks.size(),
              static_cast<long long>(result.bytes_received));
  if (!result.report_json.empty()) std::printf("%s", result.report_json.c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: quickdrop_cli <train|eval|unlearn|relearn|serve|replay|inspect> [--flags]\n"
               "  train   --dataset D --clients N --rounds R --scale S --out FILE\n"
               "          [--fault-crash P] [--fault-straggler P] [--fault-corrupt P]\n"
               "          [--fault-stale P] [--fault-seed S] [--quorum F] [--max-attempts N]\n"
               "          [--outlier-mult M] [--quantize-updates off|int8|bf16]\n"
               "          [--checkpoint-every K] [--resume]\n"
               "  eval    --checkpoint FILE\n"
               "  unlearn --checkpoint FILE (--class C | --client I) --out FILE\n"
               "  relearn --checkpoint FILE (--class C | --client I) --out FILE\n"
               "  serve   --checkpoint FILE [--trace FILE | --requests N --arrival-rate SECS]\n"
               "          [--policy fifo|priority|coalesce] [--max-batch N] [--trace-seed S]\n"
               "          [--dump-trace FILE] [--json FILE] [--out FILE] [--resume]\n"
               "          [--sec-per-round S] [--sec-per-grad S]\n"
               "          [--transport inproc|loopback] [--wire-bandwidth BYTES/S]\n"
               "          [--listen PORT [--tenants name=token,...]] [--wire-listen PORT]\n"
               "  replay  --connect HOST:PORT --checkpoint FILE --trace FILE [--tenant NAME]\n"
               "  inspect --checkpoint FILE\n"
               "  common: --log-level debug|info|warn|error (or QUICKDROP_LOG_LEVEL)\n"
               "          --threads N (or QUICKDROP_THREADS; default: all hardware threads)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    qd::set_log_level_from_env();
    qd::set_threads_from_env();
    qd::CliFlags flags(argc - 1, argv + 1);
    const auto log_level = flags.get_string("log-level", "");
    if (!log_level.empty()) qd::set_log_level(qd::log_level_from_name(log_level));
    const int threads = flags.get_int("threads", 0);
    if (threads < 0) throw std::invalid_argument("--threads must be >= 1 (0 = hardware default)");
    if (threads > 0) qd::set_num_threads(threads);
    if (command == "train") return cmd_train(flags);
    if (command == "eval") return cmd_eval(flags);
    if (command == "unlearn") return cmd_unlearn(flags);
    if (command == "relearn") return cmd_relearn(flags);
    if (command == "serve") return cmd_serve(flags);
    if (command == "replay") return cmd_replay(flags);
    if (command == "inspect") return cmd_inspect(flags);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
