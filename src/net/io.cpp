#include "net/io.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>

namespace quickdrop::net {

const char* net_error_name(NetErrorCode code) {
  switch (code) {
    case NetErrorCode::kMalformedHttp: return "malformed-http";
    case NetErrorCode::kClosed: return "closed";
    case NetErrorCode::kTimeout: return "timeout";
    case NetErrorCode::kIoFailure: return "io-failure";
  }
  return "unknown";
}

namespace {

/// One direction of the loopback pipe: an unbounded byte queue plus an
/// end-of-stream flag. Writers never block; readers block until data or EOS.
struct Channel {
  std::mutex mutex;
  std::condition_variable readable;
  std::deque<std::uint8_t> bytes;
  bool finished = false;

  void write(std::span<const std::uint8_t> data) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (finished) {
        throw NetError(NetErrorCode::kClosed, "write after finish_write on loopback pipe");
      }
      bytes.insert(bytes.end(), data.begin(), data.end());
    }
    readable.notify_all();
  }

  std::size_t read(std::span<std::uint8_t> out) {
    std::unique_lock<std::mutex> lock(mutex);
    readable.wait(lock, [&] { return !bytes.empty() || finished; });
    if (bytes.empty()) return 0;  // finished and drained
    const std::size_t n = std::min(out.size(), bytes.size());
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = bytes.front();
      bytes.pop_front();
    }
    return n;
  }

  void finish() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      finished = true;
    }
    readable.notify_all();
  }
};

/// An Io endpoint reading from one channel and writing to the other.
class LoopbackIo : public Io {
 public:
  LoopbackIo(std::shared_ptr<Channel> in, std::shared_ptr<Channel> out)
      : in_(std::move(in)), out_(std::move(out)) {}
  ~LoopbackIo() override { out_->finish(); }

  std::size_t read_some(std::span<std::uint8_t> buf) override { return in_->read(buf); }
  void write_all(std::span<const std::uint8_t> bytes) override { out_->write(bytes); }
  void finish_write() override { out_->finish(); }

 private:
  std::shared_ptr<Channel> in_;
  std::shared_ptr<Channel> out_;
};

}  // namespace

LoopbackPair make_loopback() {
  auto a = std::make_shared<Channel>();  // client -> server
  auto b = std::make_shared<Channel>();  // server -> client
  return {std::make_shared<LoopbackIo>(b, a), std::make_shared<LoopbackIo>(a, b)};
}

}  // namespace quickdrop::net
