// Real-socket coverage for the POSIX transport: ephemeral-port listeners,
// refused connects, and the poll-based HTTP accept loop. Each two-sided test
// runs server and client as two chunks on a private two-executor pool;
// environments that forbid binding 127.0.0.1 skip instead of failing.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>

#include "net/http.h"
#include "net/socket.h"
#include "util/thread_pool.h"

namespace quickdrop::net {
namespace {

/// Binds an ephemeral listener, or nullptr when the sandbox forbids it.
std::unique_ptr<TcpListener> try_listen() {
  try {
    return std::make_unique<TcpListener>(0);
  } catch (const NetError&) {
    return nullptr;
  }
}

TEST(Socket, ListenerReportsEphemeralPort) {
  const auto listener = try_listen();
  if (!listener) GTEST_SKIP() << "cannot bind 127.0.0.1 in this environment";
  EXPECT_GT(listener->port(), 0);
}

TEST(Socket, ServeHttpAnswersOverTcpAndHonoursStop) {
  auto listener = try_listen();
  if (!listener) GTEST_SKIP() << "cannot bind 127.0.0.1 in this environment";

  std::atomic<bool> stop{false};
  std::atomic<int> idle_ticks{0};
  std::string response;

  ThreadPool pool(2);
  pool.run_chunks(2, [&](int chunk) {
    if (chunk == 0) {
      serve_http(
          *listener,
          [](const HttpRequest& request) {
            return HttpResponse{.status = 200, .body = "{\"echo\": \"" + request.target + "\"}"};
          },
          [&] { ++idle_ticks; }, [&] { return stop.load(); }, /*idle_timeout_ms=*/10);
    } else {
      auto conn = tcp_connect("127.0.0.1", listener->port());
      const std::string wire = "GET /ping HTTP/1.1\r\n\r\n";
      conn->write_all(std::span(reinterpret_cast<const std::uint8_t*>(wire.data()),
                                wire.size()));
      conn->finish_write();
      std::uint8_t buf[512];
      while (const auto n = conn->read_some(buf)) {
        response.append(reinterpret_cast<const char*>(buf), n);
      }
      stop.store(true);
    }
  });

  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("{\"echo\": \"/ping\"}"), std::string::npos);
  EXPECT_GE(idle_ticks.load(), 0);
}

TEST(Socket, ServeHttpSurvivesAbruptAndIdleClients) {
  auto listener = try_listen();
  if (!listener) GTEST_SKIP() << "cannot bind 127.0.0.1 in this environment";

  std::atomic<bool> stop{false};
  std::string response;

  ThreadPool pool(2);
  pool.run_chunks(2, [&](int chunk) {
    if (chunk == 0) {
      serve_http(
          *listener,
          [](const HttpRequest& request) {
            return HttpResponse{.status = 200, .body = "{\"echo\": \"" + request.target + "\"}"};
          },
          /*idle_hook=*/{}, [&] { return stop.load(); }, /*idle_timeout_ms=*/5,
          /*conn_idle_limit_ms=*/25);
    } else {
      {
        // Half a request line, then vanish: the server's 400 lands on a
        // closing socket. The accept loop must shrug it off.
        const auto bad = tcp_connect("127.0.0.1", listener->port());
        const std::string partial = "GET /partial";
        bad->write_all(std::span(reinterpret_cast<const std::uint8_t*>(partial.data()),
                                 partial.size()));
      }
      {
        // A silent connection: the idle limit drops it, which we observe as
        // end-of-stream instead of blocking forever.
        const auto idle = tcp_connect("127.0.0.1", listener->port());
        std::uint8_t buf[64];
        EXPECT_EQ(idle->read_some(buf), 0u);
      }
      // The loop is still accepting: a well-formed request gets answered.
      const auto good = tcp_connect("127.0.0.1", listener->port());
      const std::string wire = "GET /alive HTTP/1.1\r\n\r\n";
      good->write_all(
          std::span(reinterpret_cast<const std::uint8_t*>(wire.data()), wire.size()));
      good->finish_write();
      std::uint8_t buf[512];
      while (const auto n = good->read_some(buf)) {
        response.append(reinterpret_cast<const char*>(buf), n);
      }
      stop.store(true);
    }
  });

  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("{\"echo\": \"/alive\"}"), std::string::npos);
}

TEST(Socket, ConnectToClosedPortThrowsIoFailure) {
  // Bind then immediately destroy the listener to find a port that is very
  // likely closed; a refused connect must surface as a typed NetError.
  std::uint16_t port = 0;
  {
    const auto listener = try_listen();
    if (!listener) GTEST_SKIP() << "cannot bind 127.0.0.1 in this environment";
    port = listener->port();
  }
  try {
    tcp_connect("127.0.0.1", port);
    GTEST_SKIP() << "port was re-bound between tests";
  } catch (const NetError& e) {
    EXPECT_EQ(e.code, NetErrorCode::kIoFailure);
  }
}

}  // namespace
}  // namespace quickdrop::net
