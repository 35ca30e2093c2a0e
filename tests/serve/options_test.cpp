// Typed CLI validation for `serve`: every OptionsError path — bad values,
// cross-flag conflicts and the --resume policy gate — exercised without
// invoking the binary.
#include <gtest/gtest.h>

#include <map>
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

  // The removed wire front end's flags are unknown now: a stale script that
  // still passes one fails loudly instead of running in-process.
  std::vector<std::string> args = {"prog", "--transport", "loopback"};
  auto argv = make_argv(args);
  CliFlags flags(static_cast<int>(argv.size()), argv.data());
  (void)parse_serve_options(flags);
  try {
    flags.check_unused();
    ADD_FAILURE() << "--transport was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--transport"), std::string::npos) << e.what();
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
}

TEST(ServeOptions, TenantsRequireListenMode) {
  expect_serve_error({"--tenants=a=1"}, "tenants");
  EXPECT_EQ(parse_serve({"--listen=8080", "--tenants=a=1"}).tenants_spec, "a=1");
}

TEST(ServeOptions, ResumePolicyGate) {
  ServeOptions o;
  o.policy = "coalesce";

  // Not resuming: any metadata passes.
  o.resume = false;
  EXPECT_NO_THROW(validate_resume_policy(o, {}));

  o.resume = true;
  // Checkpoint predates policy recording.
  EXPECT_THROW(validate_resume_policy(o, {}), OptionsError);
  // Policy mismatch names the recorded policy in the message; a checkpoint
  // served under the removed fifo policy is such a mismatch.
  try {
    validate_resume_policy(o, {{kServePolicyKey, "fifo"}});
    ADD_FAILURE() << "expected policy-mismatch OptionsError";
  } catch (const OptionsError& e) {
    EXPECT_EQ(e.flag, "resume");
    EXPECT_NE(std::string(e.what()).find("'fifo'"), std::string::npos);
  }
  // Matching policy resumes.
  EXPECT_NO_THROW(validate_resume_policy(o, {{kServePolicyKey, "coalesce"}}));
}

}  // namespace
}  // namespace quickdrop::serve
