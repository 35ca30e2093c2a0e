// Byte transport behind the HTTP front end.
//
// The HTTP parser and connection loop (net/http.h) move bytes through the
// `Io` interface instead of a file descriptor, so they are testable (and
// tier-1 gated) over an in-memory loopback pipe with no ports, while
// production traffic rides the POSIX socket implementation in
// net/socket.h. The loopback pipe is thread-safe and its writes never block
// (unbounded buffer), so one thread can write a whole request stream and
// then serve it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

namespace quickdrop::net {

/// What went wrong at the transport or protocol layer. Mirrors nn::StateError
/// / serve::TraceError: typed, derived from a std:: exception so generic
/// catch sites keep working, with a stable code for tests and logs.
enum class NetErrorCode {
  kMalformedHttp,   ///< HTTP head/body violates the grammar or caps
  kClosed,          ///< peer closed where the protocol required more
  kTimeout,         ///< peer stayed silent past the allowed idle window
  kIoFailure,       ///< OS-level socket failure (errno in the message)
};

/// Stable lower-case token, e.g. "malformed-http" (used in logs and tests).
const char* net_error_name(NetErrorCode code);

/// Typed transport/protocol failure.
struct NetError : std::runtime_error {
  NetError(NetErrorCode code, const std::string& what)
      : std::runtime_error(std::string(net_error_name(code)) + ": " + what), code(code) {}
  NetErrorCode code;
};

/// A bidirectional byte stream. Implementations: TcpConn (net/socket.h,
/// EINTR-safe POSIX sockets) and the in-memory loopback pair below.
class Io {
 public:
  virtual ~Io() = default;

  /// Reads between 1 and buf.size() bytes, blocking until data is available.
  /// Returns 0 only on clean end-of-stream (peer finished writing).
  virtual std::size_t read_some(std::span<std::uint8_t> buf) = 0;

  /// Writes all of `bytes` (looping as needed). Throws NetError on failure.
  virtual void write_all(std::span<const std::uint8_t> bytes) = 0;

  /// Signals end-of-stream to the peer: after its buffered bytes drain, the
  /// peer's read_some returns 0. Further write_all calls are an error.
  virtual void finish_write() = 0;
};

/// The two ends of an in-memory duplex pipe: bytes written to `client` are
/// read from `server` and vice versa. Thread-safe; writes never block.
struct LoopbackPair {
  std::shared_ptr<Io> client;
  std::shared_ptr<Io> server;
};

/// Creates a connected loopback pair.
LoopbackPair make_loopback();

}  // namespace quickdrop::net
