// POSIX TCP transport: the production implementation of net::Io.
//
// Everything here is EINTR-safe (every socket call retries on interruption),
// protocol-agnostic (HTTP framing lives in net/http.h, not here), and
// dependency-free. This file and net/socket.cpp are the only place in the
// tree allowed to touch raw socket syscalls — qdlint's api-net-io rule
// enforces that everything else goes through net::Io.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/io.h"

namespace quickdrop::net {

/// A connected TCP stream. Owns the file descriptor.
class TcpConn : public Io {
 public:
  /// Adopts a connected socket fd.
  explicit TcpConn(int fd);
  ~TcpConn() override;
  TcpConn(const TcpConn&) = delete;
  TcpConn& operator=(const TcpConn&) = delete;

  std::size_t read_some(std::span<std::uint8_t> buf) override;
  void write_all(std::span<const std::uint8_t> bytes) override;
  /// Half-close: shutdown(SHUT_WR) so the peer sees end-of-stream while this
  /// end can still read responses.
  void finish_write() override;

  /// Blocks until the connection is readable or `timeout_ms` elapses
  /// (EINTR-safe poll). Returns true when readable. timeout_ms < 0 waits
  /// forever.
  [[nodiscard]] bool wait_readable(int timeout_ms) const;

  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_;
  bool write_finished_ = false;
};

/// A listening TCP socket bound to 0.0.0.0:`port`. Pass port 0 for an
/// ephemeral port; `port()` reports the actual one.
class TcpListener {
 public:
  explicit TcpListener(std::uint16_t port);
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Accepts the next connection (EINTR-safe, blocking).
  std::unique_ptr<TcpConn> accept_conn();

  /// Blocks until a connection is pending or `timeout_ms` elapses. Returns
  /// true when accept_conn() will not block. timeout_ms < 0 waits forever.
  [[nodiscard]] bool wait_pending(int timeout_ms) const;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_;
  std::uint16_t port_;
};

/// Connects to `host`:`port` (numeric IPv4 dotted quad or "localhost").
/// Throws NetError(kIoFailure) on refusal/failure.
std::unique_ptr<TcpConn> tcp_connect(const std::string& host, std::uint16_t port);

}  // namespace quickdrop::net
