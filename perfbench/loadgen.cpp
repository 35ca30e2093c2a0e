#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "spans.h"

namespace perfbench {

namespace {

/// Uniform in [0, 1) with 53 random bits.
double uniform01(quickdrop::Rng& rng) {
  return static_cast<double>(rng.next_u64() >> 11) * 0x1.0p-53;
}

std::vector<double> uniform_arrivals(quickdrop::Rng rng, double rate, double seconds) {
  const auto n = static_cast<std::size_t>(std::llround(rate * seconds));
  std::vector<double> due(n);
  for (double& t : due) t = uniform01(rng) * seconds;
  std::sort(due.begin(), due.end());
  return due;
}

std::string unlearn_body(const char* kind, int target) {
  return std::string("{\"kind\": \"") + kind + "\", \"target\": " + std::to_string(target) + "}";
}

}  // namespace

double exponential_gap(quickdrop::Rng& rng, double mean) {
  return -mean * std::log(1.0 - uniform01(rng));
}

std::vector<Planned> make_schedule(const ScheduleSpec& spec, std::uint64_t seed) {
  if (spec.tokens.empty()) throw std::invalid_argument("make_schedule: no tenant tokens");
  const quickdrop::Rng root(seed);

  const std::vector<double> posts =
      uniform_arrivals(root.split(kPostTimes), kUnlearnPerS, spec.seconds);
  const auto n = posts.size();
  const auto unauthorized = static_cast<std::size_t>(std::lround(kUnauthorizedShare * n));
  const auto out_of_range = static_cast<std::size_t>(std::lround(kOutOfRangeShare * n));

  // The well-formed requests name the same targets in the same order in
  // every run (an unlearning request's cost depends on what was forgotten
  // before it): one client request in every 1 / kClientShare, classes and
  // clients each counted up from 0. The seed places the malformed ones
  // among them (Fisher-Yates).
  std::vector<std::string> bodies;
  double client_due = 0.0;
  int next_class = 0;
  int next_client = 0;
  while (bodies.size() + unauthorized + out_of_range < n) {
    client_due += kClientShare;
    if (client_due >= 1.0) {
      client_due -= 1.0;
      bodies.push_back(unlearn_body("client", next_client++ % spec.num_clients));
    } else {
      bodies.push_back(unlearn_body("class", next_class++ % spec.num_classes));
    }
  }
  std::vector<Expect> kinds(bodies.size(), Expect::kAdmitOrReject);
  kinds.resize(kinds.size() + unauthorized, Expect::kUnauthorized);
  kinds.resize(kinds.size() + out_of_range, Expect::kReject);
  quickdrop::Rng kinds_rng = root.split(kPostKinds);
  for (std::size_t i = kinds.size(); i > 1; --i) {
    std::swap(kinds[i - 1], kinds[kinds_rng.uniform_u64(i)]);
  }
  std::size_t next_body = 0;

  quickdrop::Rng fields = root.split(kPostFields);
  std::vector<Planned> schedule;
  for (std::size_t i = 0; i < n; ++i) {
    Planned p;
    p.due_s = posts[i];
    p.op = Op::kUnlearn;
    p.expect = kinds[i];
    p.target = "/unlearn";
    p.token = spec.tokens[fields.uniform_u64(spec.tokens.size())];
    if (p.expect == Expect::kUnauthorized) {
      p.token = "not-a-tenant";
      p.body = unlearn_body("class", 0);
    } else if (p.expect == Expect::kReject) {
      const bool cls = fields.uniform_u64(2) == 0;
      p.body = unlearn_body(cls ? "class" : "client",
                            (cls ? spec.num_classes : spec.num_clients) +
                                static_cast<int>(fields.uniform_u64(5)));
    } else {
      p.body = bodies[next_body++];
    }
    schedule.push_back(std::move(p));
  }
  for (const double due : uniform_arrivals(root.split(kMetricsTimes), kMetricsPerS, spec.seconds)) {
    Planned p;
    p.due_s = due;
    p.op = Op::kMetrics;
    p.expect = Expect::kOk;
    p.target = "/metrics";
    p.token = spec.tokens[fields.uniform_u64(spec.tokens.size())];
    schedule.push_back(std::move(p));
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const Planned& a, const Planned& b) { return a.due_s < b.due_s; });
  return schedule;
}

std::string render_request(const Planned& planned) {
  const bool post = planned.op == Op::kUnlearn;
  std::string out = std::string(post ? "POST " : "GET ") + planned.target +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\nAuthorization: Bearer " + planned.token +
                    "\r\n";
  if (planned.bench_id >= 0) out += "X-Bench-Id: " + std::to_string(planned.bench_id) + "\r\n";
  if (post) {
    out += "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(planned.body.size()) + "\r\n";
  }
  out += "\r\n";
  out += planned.body;
  return out;
}

// ---------------------------------------------------------------------------

ResponseParser::State ResponseParser::fail(const std::string& why) {
  error_ = why;
  state_ = State::kMalformed;
  return state_;
}

ResponseParser::State ResponseParser::feed(const char* data, std::size_t n) {
  if (state_ == State::kMalformed) return state_;
  if (state_ == State::kComplete) {
    return n == 0 ? state_ : fail("bytes after the response");
  }
  buf_.append(data, n);
  return parse();
}

ResponseParser::State ResponseParser::finish() {
  if (state_ == State::kIncomplete) return fail("truncated response");
  return state_;
}

ResponseParser::State ResponseParser::parse() {
  constexpr std::size_t kMaxHead = 16u << 10;
  constexpr std::size_t kMaxBody = 64u << 20;
  const std::size_t head_end = buf_.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return buf_.size() > kMaxHead ? fail("response head exceeds 16 KiB") : state_;
  }
  if (head_end > kMaxHead) return fail("response head exceeds 16 KiB");
  const std::size_t line_end = buf_.find("\r\n");
  const std::string status_line = buf_.substr(0, line_end);
  if (status_line.rfind("HTTP/1.", 0) != 0 || status_line.size() < 12 ||
      (status_line[7] != '0' && status_line[7] != '1') || status_line[8] != ' ' ||
      !std::isdigit(static_cast<unsigned char>(status_line[9])) ||
      !std::isdigit(static_cast<unsigned char>(status_line[10])) ||
      !std::isdigit(static_cast<unsigned char>(status_line[11])) ||
      (status_line.size() > 12 && status_line[12] != ' ')) {
    return fail("bad status line");
  }
  const int status = std::stoi(status_line.substr(9, 3));

  std::optional<std::size_t> content_length;
  std::size_t pos = line_end + 2;
  while (pos < head_end) {
    std::size_t eol = buf_.find("\r\n", pos);
    if (eol == std::string::npos || eol > head_end) eol = head_end;
    const std::string line = buf_.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos || colon == 0) return fail("bad header line");
    std::string name = line.substr(0, colon);
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    if (name != "content-length") continue;
    std::string value = line.substr(colon + 1);
    value.erase(0, value.find_first_not_of(" \t"));
    value.erase(value.find_last_not_of(" \t") + 1);
    if (value.empty() || value.size() > 9 ||
        value.find_first_not_of("0123456789") != std::string::npos) {
      return fail("bad content-length");
    }
    const std::size_t length = std::stoul(value);
    if (length > kMaxBody) return fail("body exceeds 64 MiB");
    if (content_length && *content_length != length) return fail("conflicting content-length");
    content_length = length;
  }
  if (!content_length) return fail("no content-length");
  const std::size_t body_start = head_end + 4;
  if (buf_.size() < body_start + *content_length) return state_;
  if (buf_.size() > body_start + *content_length) return fail("bytes after the response");
  response_.status = status;
  response_.body = buf_.substr(body_start, *content_length);
  state_ = State::kComplete;
  return state_;
}

// ---------------------------------------------------------------------------

namespace {

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    ws();
    if (!value(0)) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  bool value(int depth) {
    if (depth > 64 || i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') return object(depth);
    if (c == '[') return array(depth);
    if (c == '"') return string();
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) return number();
    return literal("true") || literal("false") || literal("null");
  }
  bool object(int depth) {
    ++i_;
    ws();
    if (peek('}')) return true;
    for (;;) {
      ws();
      if (i_ >= s_.size() || s_[i_] != '"' || !string()) return false;
      ws();
      if (!peek(':')) return false;
      ws();
      if (!value(depth + 1)) return false;
      ws();
      if (peek('}')) return true;
      if (!peek(',')) return false;
    }
  }
  bool array(int depth) {
    ++i_;
    ws();
    if (peek(']')) return true;
    for (;;) {
      ws();
      if (!value(depth + 1)) return false;
      ws();
      if (peek(']')) return true;
      if (!peek(',')) return false;
    }
  }
  bool string() {
    ++i_;
    while (i_ < s_.size()) {
      const auto c = static_cast<unsigned char>(s_[i_++]);
      if (c == '"') return true;
      if (c < 0x20) return false;
      if (c == '\\') {
        if (i_ >= s_.size()) return false;
        const char e = s_[i_++];
        if (e == 'u') {
          for (int k = 0; k < 4; ++k) {
            if (i_ >= s_.size() || !std::isxdigit(static_cast<unsigned char>(s_[i_++]))) {
              return false;
            }
          }
        } else if (std::strchr("\"\\/bfnrt", e) == nullptr || e == '\0') {
          return false;
        }
      }
    }
    return false;
  }
  bool number() {
    if (peek('-')) {}
    if (peek('0')) {
    } else if (!digits()) {
      return false;
    }
    if (peek('.') && !digits()) return false;
    if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
      if (!peek('+')) peek('-');
      if (!digits()) return false;
    }
    return true;
  }
  bool digits() {
    const std::size_t start = i_;
    while (i_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[i_]))) ++i_;
    return i_ > start;
  }
  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (s_.compare(i_, n, word) != 0) return false;
    i_ += n;
    return true;
  }
  bool peek(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

}  // namespace

bool json_valid(const std::string& text) { return JsonChecker(text).valid(); }

std::optional<std::string> json_field(const std::string& text, const std::string& key) {
  const std::string quoted = "\"" + key + "\"";
  std::size_t pos = text.find(quoted);
  if (pos == std::string::npos) return std::nullopt;
  pos = text.find_first_not_of(" \t\r\n", pos + quoted.size());
  if (pos == std::string::npos || text[pos] != ':') return std::nullopt;
  pos = text.find_first_not_of(" \t\r\n", pos + 1);
  if (pos == std::string::npos) return std::nullopt;
  if (text[pos] == '"') {
    const std::size_t end = text.find('"', pos + 1);
    if (end == std::string::npos) return std::nullopt;
    return text.substr(pos + 1, end - pos - 1);
  }
  const std::size_t end = text.find_first_not_of("-0123456789", pos);
  if (end == pos) return std::nullopt;
  return text.substr(pos, end == std::string::npos ? std::string::npos : end - pos);
}

// ---------------------------------------------------------------------------

struct OpenLoop::Conn {
  Planned planned;
  int fd = -1;
  double sent_s = 0.0;
  std::string out;
  std::size_t written = 0;
  bool connected = false;
  double complete_s = -1.0;  ///< when the last response byte arrived
  ResponseParser parser;
  std::int64_t bytes_in = 0;
};

namespace {

bool due_later(const Planned& a, const Planned& b) { return a.due_s > b.due_s; }

/// Checks the response against what the request was built to provoke.
std::string verdict(const Planned& planned, const HttpResponse& response) {
  const int s = response.status;
  if (s >= 500) return "server error " + std::to_string(s);
  if (!json_valid(response.body)) return "unparsable JSON body (status " + std::to_string(s) + ")";
  const bool rejected = s == 400 && json_field(response.body, "status") == "rejected";
  switch (planned.expect) {
    case Expect::kAdmitOrReject:
      if ((s == 202 && json_field(response.body, "id")) || rejected) return "";
      break;
    case Expect::kReject:
      if (rejected) return "";
      break;
    case Expect::kUnauthorized:
      if (s == 401) return "";
      break;
    case Expect::kOk:
      if (s == 200) return "";
      break;
  }
  return "unexpected status " + std::to_string(s);
}

}  // namespace

OpenLoop::OpenLoop(LoopConfig config, std::vector<Planned> schedule, OnDone on_done)
    : config_(config), pending_(std::move(schedule)), on_done_(std::move(on_done)) {
  if (config_.max_in_flight < 1) throw std::invalid_argument("OpenLoop: max_in_flight < 1");
  std::make_heap(pending_.begin(), pending_.end(), due_later);
}

std::vector<Outcome> OpenLoop::run() {
  const std::int64_t origin = now_ns();
  const auto clock = [origin] { return static_cast<double>(now_ns() - origin) * 1e-9; };
  std::vector<Conn> active;
  std::vector<Outcome> outcomes;

  const auto finish = [&](Conn& conn, std::string error) {
    ::close(conn.fd);
    Outcome o;
    o.planned = conn.planned;
    o.sent_s = conn.sent_s;
    o.done_s = conn.complete_s >= 0.0 ? conn.complete_s : clock();
    o.bytes_out = static_cast<std::int64_t>(conn.written);
    o.bytes_in = conn.bytes_in;
    if (error.empty()) {
      o.response = conn.parser.response();
      error = verdict(o.planned, o.response);
    }
    o.ok = error.empty();
    o.error = std::move(error);
    for (Planned& next : on_done_(o)) {
      if (next.due_s <= config_.seconds + kGraceS) {
        pending_.push_back(std::move(next));
        std::push_heap(pending_.begin(), pending_.end(), due_later);
      }
    }
    outcomes.push_back(std::move(o));
  };

  const auto start = [&](Planned planned) {
    Conn conn;
    conn.planned = std::move(planned);
    conn.sent_s = clock();
    conn.out = render_request(conn.planned);
    conn.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (conn.fd < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(conn.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 &&
        errno != EINPROGRESS) {
      const std::string why = std::string("connect: ") + std::strerror(errno);
      active.push_back(std::move(conn));
      finish(active.back(), why);
      active.pop_back();
      return;
    }
    active.push_back(std::move(conn));
  };

  std::vector<pollfd> fds;
  for (;;) {
    double now = clock();
    while (static_cast<int>(active.size()) < config_.max_in_flight && !pending_.empty() &&
           pending_.front().due_s <= now) {
      std::pop_heap(pending_.begin(), pending_.end(), due_later);
      Planned next = std::move(pending_.back());
      pending_.pop_back();
      start(std::move(next));
    }
    if (active.empty() && pending_.empty()) break;

    double wait_s = 0.1;
    if (!pending_.empty() && static_cast<int>(active.size()) < config_.max_in_flight) {
      wait_s = std::min(wait_s, pending_.front().due_s - now);
    }
    for (const Conn& c : active) wait_s = std::min(wait_s, c.sent_s + kTimeoutS - now);
    fds.clear();
    for (const Conn& c : active) {
      fds.push_back(pollfd{c.fd, static_cast<short>(c.written < c.out.size() ? POLLOUT : POLLIN), 0});
    }
    const int timeout_ms = std::max(0, static_cast<int>(std::ceil(wait_s * 1000.0)));
    if (::poll(fds.data(), fds.size(), timeout_ms) < 0 && errno != EINTR) {
      throw std::runtime_error(std::string("poll: ") + std::strerror(errno));
    }
    now = clock();
    std::vector<std::pair<std::size_t, std::string>> done;
    for (std::size_t k = 0; k < active.size(); ++k) {
      Conn& c = active[k];
      const short ev = fds[k].revents;
      std::string error;
      bool finished = false;
      if (ev != 0 && c.written < c.out.size()) {
        if (!c.connected) {
          int err = 0;
          socklen_t len = sizeof(err);
          ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
          if (err != 0) {
            error = std::string("connect: ") + std::strerror(err);
            finished = true;
          }
          c.connected = true;
        }
        while (!finished && c.written < c.out.size()) {
          const ssize_t n = ::send(c.fd, c.out.data() + c.written, c.out.size() - c.written,
                                   MSG_NOSIGNAL);
          if (n > 0) {
            c.written += static_cast<std::size_t>(n);
          } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
            break;
          } else {
            error = std::string("send: ") + std::strerror(errno);
            finished = true;
          }
        }
        // The server reads a connection until the peer half-closes.
        if (!finished && c.written == c.out.size()) ::shutdown(c.fd, SHUT_WR);
      } else if (ev != 0) {
        char buf[16384];
        for (;;) {
          const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
          if (n > 0) {
            c.bytes_in += n;
            const auto state = c.parser.feed(buf, static_cast<std::size_t>(n));
            if (state == ResponseParser::State::kMalformed) {
              error = "malformed response: " + c.parser.error();
              finished = true;
              break;
            }
            // Latency ends with the response; the connection is closed once
            // the server's half-close arrives.
            if (state == ResponseParser::State::kComplete && c.complete_s < 0.0) c.complete_s = now;
          } else if (n == 0) {
            if (c.parser.finish() == ResponseParser::State::kMalformed) {
              error = "malformed response: " + c.parser.error();
            }
            finished = true;
            break;
          } else if (errno == EAGAIN || errno == EINTR) {
            break;
          } else {
            error = std::string("recv: ") + std::strerror(errno);
            finished = true;
            break;
          }
        }
      }
      if (!finished && now - c.sent_s >= kTimeoutS) {
        error = "timeout";
        finished = true;
      }
      if (finished) done.emplace_back(k, std::move(error));
    }
    // Finish in reverse index order so erasing keeps earlier indices valid.
    for (auto it = done.rbegin(); it != done.rend(); ++it) {
      Conn conn = std::move(active[it->first]);
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(it->first));
      finish(conn, std::move(it->second));
    }
  }
  return outcomes;
}

}  // namespace perfbench
