#include "net/http.h"

#include <algorithm>
#include <cctype>

#include "util/logging.h"

namespace quickdrop::net {

namespace {

const std::string kEmpty;

[[noreturn]] void malformed(const std::string& what) {
  throw NetError(NetErrorCode::kMalformedHttp, what);
}

std::string to_lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  return s.substr(b, e - b);
}

/// Splits a head blob into lines, accepting CRLF or bare LF endings.
std::vector<std::string> head_lines(const std::string& head) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < head.size()) {
    std::size_t nl = head.find('\n', pos);
    if (nl == std::string::npos) nl = head.size();
    std::size_t end = nl;
    if (end > pos && head[end - 1] == '\r') --end;
    lines.push_back(head.substr(pos, end - pos));
    pos = nl + 1;
  }
  return lines;
}

}  // namespace

const std::string& HttpRequest::header(const std::string& lower_name) const {
  const auto it = headers.find(lower_name);
  return it == headers.end() ? kEmpty : it->second;
}

const char* status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 401: return "Unauthorized";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 500: return "Internal Server Error";
    default: return "Unknown";
  }
}

bool HttpConnReader::fill() {
  if (eof_) return false;
  std::uint8_t chunk[4096];
  const std::size_t n = io_.read_some(std::span<std::uint8_t>(chunk, sizeof(chunk)));
  if (n == 0) {
    eof_ = true;
    return false;
  }
  buf_.insert(buf_.end(), chunk, chunk + n);
  return true;
}

std::optional<HttpRequest> HttpConnReader::next() {
  // Locate the end of the head: CRLFCRLF or LFLF, whichever comes first.
  std::size_t head_end = std::string::npos;  // index one past the delimiter
  std::size_t head_len = 0;                  // head bytes excluding delimiter
  for (;;) {
    const std::string view(buf_.begin(), buf_.end());
    const std::size_t crlf = view.find("\r\n\r\n");
    const std::size_t lf = view.find("\n\n");
    if (crlf != std::string::npos && (lf == std::string::npos || crlf < lf)) {
      head_len = crlf;
      head_end = crlf + 4;
      break;
    }
    if (lf != std::string::npos) {
      head_len = lf;
      head_end = lf + 2;
      break;
    }
    if (view.size() > kMaxHttpHeadBytes) malformed("request head exceeds cap");
    if (!fill()) {
      if (buf_.empty()) return std::nullopt;  // clean end between messages
      malformed("stream ended mid-head");
    }
  }
  if (head_len > kMaxHttpHeadBytes) malformed("request head exceeds cap");

  const std::string head(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_len));
  const auto lines = head_lines(head);
  if (lines.empty() || lines[0].empty()) malformed("empty request line");

  HttpRequest request;
  {
    const std::string& line = lines[0];
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 = sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos || line.find(' ', sp2 + 1) != std::string::npos) {
      malformed("request line is not 'METHOD TARGET VERSION'");
    }
    request.method = line.substr(0, sp1);
    request.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    request.version = line.substr(sp2 + 1);
    if (request.method.empty() || request.target.empty() || request.target[0] != '/') {
      malformed("bad method or target");
    }
    if (request.version != "HTTP/1.1" && request.version != "HTTP/1.0") {
      malformed("unsupported version '" + request.version + "'");
    }
  }
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos || colon == 0) malformed("malformed header line");
    request.headers[to_lower(line.substr(0, colon))] = trim(line.substr(colon + 1));
  }
  if (!request.header("transfer-encoding").empty()) {
    malformed("transfer-encoding is not supported");
  }

  std::size_t body_len = 0;
  const std::string& cl = request.header("content-length");
  if (!cl.empty()) {
    if (cl.find_first_not_of("0123456789") != std::string::npos || cl.size() > 9) {
      malformed("bad content-length '" + cl + "'");
    }
    body_len = static_cast<std::size_t>(std::stoul(cl));
    if (body_len > kMaxHttpBodyBytes) malformed("body exceeds cap");
  }
  while (buf_.size() < head_end + body_len) {
    if (!fill()) malformed("stream ended mid-body");
  }
  request.body.assign(buf_.begin() + static_cast<std::ptrdiff_t>(head_end),
                      buf_.begin() + static_cast<std::ptrdiff_t>(head_end + body_len));
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_end + body_len));
  return request;
}

void write_response(Io& io, const HttpResponse& response) {
  std::string head = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     status_reason(response.status) + "\r\nContent-Type: " +
                     response.content_type +
                     "\r\nContent-Length: " + std::to_string(response.body.size()) + "\r\n\r\n";
  head += response.body;
  io.write_all(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(head.data()), head.size()));
}

namespace {

/// Sends a response to a peer that may already be gone. A client that resets
/// or half-closes before we answer must cost us the connection, never an
/// exception out of the serving loop. Returns false when the write failed.
bool try_write_response(Io& io, const HttpResponse& response) {
  try {
    write_response(io, response);
    return true;
  } catch (const NetError& e) {
    QD_LOG_WARN << "http: peer gone mid-response: " << e.what();
    return false;
  }
}

/// Io adapter that bounds how long a connection may sit silent: each read
/// polls in `poll_ms` slices, running the idle hook every slice so admitted
/// work keeps draining while a peer dawdles, and drops the connection with
/// kTimeout once `idle_limit_ms` passes with no bytes.
class TimedConnIo : public Io {
 public:
  TimedConnIo(TcpConn& conn, const std::function<void()>& idle_hook, int poll_ms,
              int idle_limit_ms)
      : conn_(conn),
        idle_hook_(idle_hook),
        poll_ms_(poll_ms > 0 ? poll_ms : 1),
        idle_limit_ms_(idle_limit_ms) {}

  std::size_t read_some(std::span<std::uint8_t> buf) override {
    int idle_ms = 0;
    while (!conn_.wait_readable(poll_ms_)) {
      if (idle_hook_) idle_hook_();
      idle_ms += poll_ms_;
      if (idle_limit_ms_ >= 0 && idle_ms >= idle_limit_ms_) {
        throw NetError(NetErrorCode::kTimeout,
                       "connection idle past " + std::to_string(idle_limit_ms_) + "ms");
      }
    }
    return conn_.read_some(buf);
  }
  void write_all(std::span<const std::uint8_t> bytes) override { conn_.write_all(bytes); }
  void finish_write() override { conn_.finish_write(); }

 private:
  TcpConn& conn_;
  const std::function<void()>& idle_hook_;
  int poll_ms_;
  int idle_limit_ms_;
};

}  // namespace

void serve_http_conn(Io& io, const HttpHandler& handler) {
  HttpConnReader reader(io);
  for (;;) {
    std::optional<HttpRequest> request;
    try {
      request = reader.next();
    } catch (const NetError& e) {
      QD_LOG_WARN << "http: dropping connection: " << e.what();
      // Only a grammar violation earns a 400 — on a transport failure or
      // idle timeout the peer is not listening for one.
      if (e.code == NetErrorCode::kMalformedHttp) {
        try_write_response(io, HttpResponse{.status = 400,
                                            .body = std::string("{\"error\": \"") +
                                                    net_error_name(e.code) + "\"}\n"});
      }
      break;
    }
    if (!request) break;
    HttpResponse response;
    try {
      response = handler(*request);
    } catch (const std::exception& e) {
      QD_LOG_ERROR << "http: handler failed: " << e.what();
      response = HttpResponse{.status = 500, .body = "{\"error\": \"internal\"}\n"};
    }
    if (!try_write_response(io, response)) return;  // dead peer: skip half-close
  }
  try {
    io.finish_write();
  } catch (const NetError& e) {
    QD_LOG_WARN << "http: half-close failed: " << e.what();
  }
}

void serve_http(TcpListener& listener, const HttpHandler& handler,
                const std::function<void()>& idle_hook, const std::function<bool()>& stop,
                int idle_timeout_ms, int conn_idle_limit_ms) {
  while (!stop()) {
    if (!listener.wait_pending(idle_timeout_ms)) {
      if (idle_hook) idle_hook();
      continue;
    }
    try {
      const auto conn = listener.accept_conn();
      TimedConnIo timed(*conn, idle_hook, idle_timeout_ms, conn_idle_limit_ms);
      serve_http_conn(timed, handler);
    } catch (const NetError& e) {
      // One broken or stalled client must never take down the accept loop.
      QD_LOG_WARN << "http: connection aborted: " << e.what();
    }
  }
}

}  // namespace quickdrop::net
