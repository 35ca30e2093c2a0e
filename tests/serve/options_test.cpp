// Typed CLI validation for `serve` and `replay`: every OptionsError path —
// bad values, cross-flag conflicts, the --resume policy gate, and
// HOST:PORT parsing — exercised without invoking the binary.
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

ReplayOptions parse_replay(std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  auto argv = make_argv(args);
  CliFlags flags(static_cast<int>(argv.size()), argv.data());
  return parse_replay_options(flags);
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
  EXPECT_EQ(o.policy, "fifo");
  EXPECT_EQ(o.transport, "inproc");
  EXPECT_EQ(o.listen_port, -1);
  EXPECT_FALSE(o.trace_seed_set);
}

TEST(ServeOptions, AcceptsFullLoopbackConfiguration) {
  const auto o = parse_serve({"--transport=loopback", "--wire-bandwidth=125000",
                              "--policy=coalesce", "--max-batch=4", "--requests=10",
                              "--trace-seed=5"});
  EXPECT_EQ(o.transport, "loopback");
  EXPECT_DOUBLE_EQ(o.wire_bandwidth, 125000.0);
  EXPECT_EQ(o.max_batch, 4);
  EXPECT_TRUE(o.trace_seed_set);
  EXPECT_EQ(o.trace_seed, 5u);
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
  expect_serve_error({"--wire-bandwidth=-5"}, "wire-bandwidth");
  expect_serve_error({"--policy=bogus"}, "policy");
  expect_serve_error({"--transport=tcp"}, "transport");
}

TEST(ServeOptions, MaxBatchRequiresCoalescePolicy) {
  expect_serve_error({"--max-batch=4"}, "max-batch");
  expect_serve_error({"--policy=priority", "--max-batch=4"}, "max-batch");
  EXPECT_EQ(parse_serve({"--policy=coalesce", "--max-batch=4"}).max_batch, 4);
}

TEST(ServeOptions, TraceFileConflictsWithGenerationFlags) {
  EXPECT_EQ(parse_serve({"--trace=t.trace"}).trace_path, "t.trace");
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
  expect_serve_error({"--listen=8080", "--transport=loopback"}, "listen");
  expect_serve_error({"--listen=8080", "--trace=t.trace"}, "listen");
  expect_serve_error({"--listen=8080", "--requests=3"}, "requests");
  expect_serve_error({"--listen=8080", "--trace-seed=1"}, "trace-seed");
  expect_serve_error({"--listen=8080", "--dump-trace=d.trace"}, "dump-trace");
}

TEST(ServeOptions, TenantsRequireListenMode) {
  expect_serve_error({"--tenants=a=1"}, "tenants");
  EXPECT_EQ(parse_serve({"--listen=8080", "--tenants=a=1"}).tenants_spec, "a=1");
}

TEST(ServeOptions, WireListenValidatesPortAndConflicts) {
  EXPECT_EQ(parse_serve({"--wire-listen=9000"}).wire_listen_port, 9000);
  expect_serve_error({"--wire-listen=0"}, "wire-listen");
  expect_serve_error({"--wire-listen=70000"}, "wire-listen");
  expect_serve_error({"--wire-listen=9000", "--listen=8080"}, "wire-listen");
  expect_serve_error({"--wire-listen=9000", "--transport=loopback"}, "wire-listen");
  expect_serve_error({"--wire-listen=9000", "--trace=t.trace"}, "wire-listen");
  expect_serve_error({"--wire-listen=9000", "--requests=3"}, "requests");
  expect_serve_error({"--wire-listen=9000", "--dump-trace=d.trace"}, "dump-trace");
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
  // Policy mismatch names the recorded policy in the message.
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

TEST(ReplayOptions, RequiresConnectAndTrace) {
  const auto o = parse_replay({"--connect=10.0.0.2:9000", "--trace=t.trace",
                               "--checkpoint=m.qdcp", "--tenant=acme"});
  EXPECT_EQ(o.host, "10.0.0.2");
  EXPECT_EQ(o.port, 9000);
  EXPECT_EQ(o.trace_path, "t.trace");
  EXPECT_EQ(o.checkpoint, "m.qdcp");
  EXPECT_EQ(o.tenant, "acme");

  EXPECT_THROW(parse_replay({"--trace=t.trace"}), OptionsError);
  EXPECT_THROW(parse_replay({"--connect=host:80"}), OptionsError);  // no trace
  EXPECT_THROW(parse_replay({"--connect=host:80", "--trace=t.trace", "--tenant="}),
               OptionsError);
}

TEST(ReplayOptions, ParseHostPort) {
  const auto [host, port] = parse_host_port("localhost:8080");
  EXPECT_EQ(host, "localhost");
  EXPECT_EQ(port, 8080);

  for (const std::string bad :
       {"nohost", ":8080", "host:", "host:abc", "host:0", "host:65536", "host:123456"}) {
    try {
      parse_host_port(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const OptionsError& e) {
      EXPECT_EQ(e.flag, "connect") << bad;
    }
  }
}

}  // namespace
}  // namespace quickdrop::serve
