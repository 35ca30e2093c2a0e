// Typed CLI validation for `serve`: every OptionsError path — bad values and
// cross-flag conflicts — exercised without invoking the binary.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/options.h"

namespace quickdrop::serve {
namespace {

std::vector<char*> make_argv(std::vector<std::string>& storage) {
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  return argv;
}

ServeOptions parse_serve(std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  auto argv = make_argv(args);
  CliFlags flags(static_cast<int>(argv.size()), argv.data());
  return parse_serve_options(flags);
}

/// Asserts the parse fails and names `flag` as the offender.
void expect_serve_error(std::vector<std::string> args, const std::string& flag) {
  try {
    parse_serve(std::move(args));
    ADD_FAILURE() << "expected OptionsError on --" << flag;
  } catch (const OptionsError& e) {
    EXPECT_EQ(e.flag, flag);
    EXPECT_NE(std::string(e.what()).find("--" + flag), std::string::npos);
  }
}

TEST(ServeOptions, DefaultsParseClean) {
  const auto o = parse_serve({});
  EXPECT_EQ(o.checkpoint, "model.qdcp");
  EXPECT_EQ(o.requests, 6);
  EXPECT_EQ(o.policy, "coalesce");
  EXPECT_EQ(o.max_batch, 1);  // one request per cycle, in admission order
  EXPECT_EQ(o.listen_port, -1);
  EXPECT_FALSE(o.trace_seed_set);

  // Removed flags are unknown now: a stale script that still passes the wire
  // front end's --transport or the deleted --resume gate fails loudly instead
  // of running as if it took effect.
  for (const char* removed : {"--transport=loopback", "--resume"}) {
    std::vector<std::string> args = {"prog", removed};
    auto argv = make_argv(args);
    CliFlags flags(static_cast<int>(argv.size()), argv.data());
    (void)parse_serve_options(flags);
    const std::string name = std::string(removed).substr(0, std::string(removed).find('='));
    try {
      flags.check_unused();
      ADD_FAILURE() << name << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
    }
  }
}

TEST(ServeOptions, RejectsOutOfRangeValues) {
  expect_serve_error({"--requests=0"}, "requests");
  expect_serve_error({"--requests=-3"}, "requests");
  expect_serve_error({"--arrival-rate=0"}, "arrival-rate");
  expect_serve_error({"--arrival-rate=-1"}, "arrival-rate");
  expect_serve_error({"--client-fraction=-0.1"}, "client-fraction");
  expect_serve_error({"--client-fraction=1.5"}, "client-fraction");
  expect_serve_error({"--max-batch=-1"}, "max-batch");
  expect_serve_error({"--sec-per-round=-2"}, "sec-per-round");
  expect_serve_error({"--sec-per-grad=-1e-4"}, "sec-per-grad");
  expect_serve_error({"--policy=bogus"}, "policy");
  expect_serve_error({"--policy=fifo"}, "policy");  // now coalesce with --max-batch 1
}

TEST(ServeOptions, MaxBatchRequiresCoalescePolicy) {
  // The default max_batch does not count against priority; only the flag does.
  EXPECT_EQ(parse_serve({"--policy=priority"}).policy, "priority");
  expect_serve_error({"--policy=priority", "--max-batch=4"}, "max-batch");
  expect_serve_error({"--policy=priority", "--max-batch=0"}, "max-batch");
  EXPECT_EQ(parse_serve({"--policy=coalesce", "--max-batch=4"}).max_batch, 4);
  EXPECT_EQ(parse_serve({"--max-batch=0"}).max_batch, 0);
}

TEST(ServeOptions, TraceFileConflictsWithGenerationFlags) {
  EXPECT_EQ(parse_serve({"--trace=t.trace"}).trace_path, "t.trace");
  const auto seeded = parse_serve({"--requests=10", "--trace-seed=5"});
  EXPECT_EQ(seeded.requests, 10);
  EXPECT_TRUE(seeded.trace_seed_set);
  EXPECT_EQ(seeded.trace_seed, 5u);
  expect_serve_error({"--trace=t.trace", "--requests=3"}, "requests");
  expect_serve_error({"--trace=t.trace", "--arrival-rate=5"}, "arrival-rate");
  expect_serve_error({"--trace=t.trace", "--client-fraction=0.5"}, "client-fraction");
  expect_serve_error({"--trace=t.trace", "--trace-seed=1"}, "trace-seed");
}

TEST(ServeOptions, ListenModeValidatesPortAndConflicts) {
  EXPECT_EQ(parse_serve({"--listen=8080"}).listen_port, 8080);
  expect_serve_error({"--listen=0"}, "listen");
  expect_serve_error({"--listen=-1"}, "listen");
  expect_serve_error({"--listen=70000"}, "listen");
  expect_serve_error({"--listen=8080", "--trace=t.trace"}, "listen");
  expect_serve_error({"--listen=8080", "--requests=3"}, "requests");
  expect_serve_error({"--listen=8080", "--trace-seed=1"}, "trace-seed");
  expect_serve_error({"--listen=8080", "--dump-trace=d.trace"}, "dump-trace");
  // The HTTP loop never returns, so these outputs would never be written.
  expect_serve_error({"--listen=8080", "--out=served.qdcp"}, "out");
  expect_serve_error({"--listen=8080", "--json=service.json"}, "json");
}

TEST(ServeOptions, TenantsRequireListenMode) {
  expect_serve_error({"--tenants=a=1"}, "tenants");
  EXPECT_EQ(parse_serve({"--listen=8080", "--tenants=a=1"}).tenants_spec, "a=1");
}

}  // namespace
}  // namespace quickdrop::serve
