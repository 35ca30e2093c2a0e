// Reproduces Figure 2: class-wise testing accuracy per round while QuickDrop
// unlearns class 9 (CIFAR-10 stand-in, 10 clients, alpha=0.1) — one round of
// SGA unlearning on the synthetic data followed by recovery rounds.
#include <cstdio>

#include "common/world.h"
#include "util/table.h"

namespace qd = quickdrop;

int main(int argc, char** argv) {
  qd::CliFlags flags(argc, argv);
  auto config = qd::bench::WorldConfig::from_flags(flags);
  const int target_class = flags.get_int("class", 9);
  flags.check_unused();

  qd::bench::print_banner("Figure 2: class-wise accuracy during unlearning + recovery", config);
  auto world = qd::bench::build_world(config);
  const int num_classes = world.fed.test.num_classes();

  qd::TextTable table;
  std::vector<std::string> header = {"round", "stage"};
  for (int c = 0; c < num_classes; ++c) header.push_back("c" + std::to_string(c));
  table.set_header(header);

  auto add_row = [&](int round, const std::string& stage, const qd::nn::ModelState& state) {
    const auto pc = world.per_class(state);
    std::vector<std::string> row = {std::to_string(round), stage};
    for (const double a : pc) row.push_back(qd::fmt_percent(a, 1));
    table.add_row(std::move(row));
  };

  int round_counter = 0;
  add_row(round_counter++, "trained", world.fed.global);
  add_row(round_counter++, "trained", world.fed.global);  // paper shows 2 flat rounds first

  const auto request = qd::core::UnlearningRequest::for_class(target_class);
  std::vector<std::pair<std::string, qd::nn::ModelState>> snapshots;
  world.fed.quickdrop->unlearn_batch(
      world.fed.global, {request}, nullptr, nullptr, {},
      [&](const qd::core::UnlearnCursor& cursor, const qd::nn::ModelState& state) {
        snapshots.emplace_back(
            cursor.phase == qd::core::UnlearnCursor::kPhaseUnlearn ? "unlearn" : "recover",
            state);
      });
  for (const auto& [stage, state] : snapshots) add_row(round_counter++, stage, state);

  std::printf("%s\n", table.render().c_str());
  std::printf("paper (Fig. 2): the target class drops to ~0.8%% after one unlearning round;\n"
              "non-target classes dip from SGA noise and are restored within two recovery\n"
              "rounds; extra rounds bring no further change.\n");
  return 0;
}
