#include "proto/http.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <string_view>
#include <utility>

namespace pvn {
namespace {

const std::string* find_header(
    const std::vector<std::pair<std::string, std::string>>& headers,
    const std::string& name) {
  for (const auto& [k, v] : headers) {
    if (k == name) return &v;
  }
  return nullptr;
}

void append_headers(
    std::string& out,
    const std::vector<std::pair<std::string, std::string>>& headers,
    std::size_t body_size) {
  bool has_length = false;
  for (const auto& [k, v] : headers) {
    out += k;
    out += ": ";
    out += v;
    out += "\r\n";
    if (k == "Content-Length") has_length = true;
  }
  if (!has_length) {
    out += "Content-Length: " + std::to_string(body_size) + "\r\n";
  }
  out += "\r\n";
}

// The wire form of a message: start line, headers, blank line, body, in one
// buffer sized once.
Bytes frame(std::string head,
            const std::vector<std::pair<std::string, std::string>>& headers,
            const Bytes& body) {
  append_headers(head, headers, body.size());
  Bytes raw;
  raw.reserve(head.size() + body.size());
  raw.insert(raw.end(), head.begin(), head.end());
  raw.insert(raw.end(), body.begin(), body.end());
  return raw;
}

}  // namespace

const std::string* HttpRequest::header(const std::string& name) const {
  return find_header(headers, name);
}
void HttpRequest::set_header(const std::string& name,
                             const std::string& value) {
  for (auto& [k, v] : headers) {
    if (k == name) {
      v = value;
      return;
    }
  }
  headers.emplace_back(name, value);
}

const std::string* HttpResponse::header(const std::string& name) const {
  return find_header(headers, name);
}
void HttpResponse::set_header(const std::string& name,
                              const std::string& value) {
  for (auto& [k, v] : headers) {
    if (k == name) {
      v = value;
      return;
    }
  }
  headers.emplace_back(name, value);
}

Bytes HttpRequest::serialize() const {
  return frame(method + " " + path + " HTTP/1.1\r\n", headers, body);
}

Bytes HttpResponse::serialize() const {
  return frame("HTTP/1.1 " + std::to_string(status) + " " + reason + "\r\n",
               headers, body);
}

void HttpParser::feed(const Bytes& chunk) {
  const std::uint8_t* p = chunk.data();
  std::size_t n = chunk.size();
  while (!error_) {
    if (in_body_) {
      Bytes& body = kind_ == Kind::kRequest ? req_.body : resp_.body;
      const std::size_t take = std::min(n, body_left_);
      body.insert(body.end(), p, p + take);
      p += take;
      n -= take;
      body_left_ -= take;
      if (body_left_ > 0) return;
      emit();
      continue;
    }
    if (n == 0) return;
    const std::size_t head_bytes = head_bytes_in(p, n);
    const std::size_t take = head_bytes == std::string::npos ? n : head_bytes;
    if (buf_.size() + take > kMaxHeadBytes) {
      error_ = true;
      std::string().swap(buf_);
      return;
    }
    buf_.append(p, p + take);
    if (head_bytes == std::string::npos) return;
    p += take;
    n -= take;
    parse_head();
  }
}

// How many bytes of [p, p + n) complete the pending head, or npos if its
// "\r\n\r\n" is not among them. buf_ never holds a whole terminator, so one
// that starts in buf_'s last three bytes ends within the chunk's first three.
std::size_t HttpParser::head_bytes_in(const std::uint8_t* p,
                                      std::size_t n) const {
  constexpr std::string_view kHeadEnd = "\r\n\r\n";
  const std::size_t tail = std::min<std::size_t>(buf_.size(), 3);
  if (tail > 0) {
    char window[6];
    const std::size_t from_chunk = std::min<std::size_t>(n, 3);
    std::memcpy(window, buf_.data() + buf_.size() - tail, tail);
    std::memcpy(window + tail, p, from_chunk);
    const auto at = std::string_view(window, tail + from_chunk).find(kHeadEnd);
    if (at != std::string_view::npos) return at + kHeadEnd.size() - tail;
  }
  const auto at =
      std::string_view(reinterpret_cast<const char*>(p), n).find(kHeadEnd);
  return at == std::string_view::npos ? std::string::npos
                                      : at + kHeadEnd.size();
}

// Parses the head in buf_ (terminator included) into req_ or resp_, which
// emit() left default-constructed, empties buf_ and starts the body. Sets
// error_ on a malformed head.
void HttpParser::parse_head() {
  const std::string_view head(buf_.data(), buf_.size() - 4);
  std::vector<std::pair<std::string, std::string>> headers;
  const std::size_t line_start = head.find("\r\n");
  const std::string first_line(head.substr(0, line_start));
  if (line_start != std::string_view::npos) {
    std::size_t pos = line_start + 2;
    while (pos < head.size()) {
      std::size_t eol = head.find("\r\n", pos);
      if (eol == std::string_view::npos) eol = head.size();
      const std::string_view line = head.substr(pos, eol - pos);
      const auto colon = line.find(": ");
      if (colon == std::string_view::npos) {
        error_ = true;
        return;
      }
      headers.emplace_back(line.substr(0, colon), line.substr(colon + 2));
      pos = eol + 2;
    }
  }
  std::size_t content_length = 0;
  if (const std::string* cl = find_header(headers, "Content-Length")) {
    const auto [p, ec] =
        std::from_chars(cl->data(), cl->data() + cl->size(), content_length);
    if (ec != std::errc() || p != cl->data() + cl->size() ||
        content_length > kMaxContentLength) {
      error_ = true;
      return;
    }
  }

  const auto sp1 = first_line.find(' ');
  if (kind_ == Kind::kRequest) {
    const auto sp2 = first_line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
      error_ = true;
      return;
    }
    req_.method = first_line.substr(0, sp1);
    req_.path = first_line.substr(sp1 + 1, sp2 - sp1 - 1);
    req_.headers = std::move(headers);
  } else {
    if (sp1 == std::string::npos) {
      error_ = true;
      return;
    }
    const auto sp2 = first_line.find(' ', sp1 + 1);
    resp_.status = std::atoi(first_line.c_str() + sp1 + 1);
    resp_.reason = sp2 == std::string::npos ? "" : first_line.substr(sp2 + 1);
    resp_.headers = std::move(headers);
  }
  buf_.clear();
  (kind_ == Kind::kRequest ? req_.body : resp_.body).reserve(content_length);
  body_left_ = content_length;
  in_body_ = true;
}

void HttpParser::emit() {
  in_body_ = false;
  if (kind_ == Kind::kRequest) {
    HttpRequest req = std::exchange(req_, HttpRequest{});
    if (on_request_) on_request_(std::move(req));
  } else {
    HttpResponse resp = std::exchange(resp_, HttpResponse{});
    if (on_response_) on_response_(std::move(resp));
  }
}

HttpResponse synthesize_response(const HttpRequest& req) {
  HttpResponse resp;
  if (req.path.rfind("/bytes/", 0) == 0) {
    // N is digits only (from_chars into an unsigned takes no sign); a
    // malformed N, or one a client parser would refuse, gets an error status
    // instead of a body.
    const char* first = req.path.data() + 7;
    const char* last = req.path.data() + req.path.size();
    std::size_t n = 0;
    const auto [end, ec] = std::from_chars(first, last, n);
    if (ec != std::errc() || end != last || n > HttpParser::kMaxContentLength) {
      resp.status = 400;
      resp.reason = "Bad Request";
      resp.body = to_bytes("bad /bytes/ size: " + req.path.substr(7));
      resp.set_header("Content-Type", "text/plain");
      return resp;
    }
    resp.body = periodic_bytes(n, 'a', 23);
    resp.set_header("Content-Type", "application/octet-stream");
  } else {
    const std::string text = "hello from pvn http-lite: " + req.path;
    resp.body = to_bytes(text);
    resp.set_header("Content-Type", "text/plain");
  }
  return resp;
}

struct HttpServer::ConnState {
  TcpConnection* conn = nullptr;
  HttpParser parser{HttpParser::Kind::kRequest, nullptr, nullptr};
};

HttpServer::HttpServer(Host& host, Port port)
    : host_(&host), handler_(synthesize_response) {
  host_->tcp_listen(port, [this](TcpConnection& conn) { on_accept(conn); });
}

void HttpServer::on_accept(TcpConnection& conn) {
  auto state = std::make_unique<ConnState>();
  ConnState* s = state.get();
  s->conn = &conn;
  s->parser = HttpParser(
      HttpParser::Kind::kRequest,
      [this, s](HttpRequest req) {
        ++requests_;
        const HttpResponse resp = handler_(req);
        s->conn->send(resp.serialize());
        const std::string* connection = req.header("Connection");
        if (connection != nullptr && *connection == "close") s->conn->close();
      },
      nullptr);
  conn.on_data = [s](const Bytes& data) { s->parser.feed(data); };
  conns_.push_back(std::move(state));
}

struct HttpClient::FetchState {
  HttpParser parser{HttpParser::Kind::kResponse, nullptr, nullptr};
  FetchTiming timing;
  Callback cb;
  bool done = false;
};

void HttpClient::fetch(Ipv4Addr dst, Port port, const std::string& path,
                       Callback cb,
                       std::vector<std::pair<std::string, std::string>> headers,
                       Bytes body, const std::string& method) {
  auto state = std::make_unique<FetchState>();
  FetchState* s = state.get();
  s->cb = std::move(cb);
  s->timing.started = host_->sim().now();

  TcpConnection& conn = host_->tcp_connect(dst, port);
  HttpRequest req;
  req.method = method;
  req.path = path;
  req.headers = std::move(headers);
  req.body = std::move(body);

  s->parser = HttpParser(
      HttpParser::Kind::kResponse, nullptr, [this, s, &conn](HttpResponse resp) {
        if (s->done) return;
        s->done = true;
        s->timing.completed = host_->sim().now();
        s->timing.ok = resp.status >= 200 && resp.status < 400;
        s->timing.body_bytes = resp.body.size();
        conn.close();
        if (s->cb) s->cb(resp, s->timing);
      });

  conn.on_connected = [this, s, &conn, req = std::move(req)]() {
    s->timing.connected = host_->sim().now();
    conn.send(req.serialize());
  };
  conn.on_data = [this, s](const Bytes& data) {
    if (s->timing.first_byte == 0) s->timing.first_byte = host_->sim().now();
    s->parser.feed(data);
  };
  conn.on_closed = [this, s]() {
    if (s->done) return;
    s->done = true;
    s->timing.completed = host_->sim().now();
    s->timing.ok = false;
    HttpResponse failed;
    failed.status = 0;
    if (s->cb) s->cb(failed, s->timing);
  };
  fetches_.push_back(std::move(state));
}

// Out of line so unique_ptr<ConnState>/unique_ptr<FetchState> destroy with
// the complete types in scope.
HttpClient::HttpClient(Host& host) : host_(&host) {}
HttpServer::~HttpServer() = default;
HttpClient::~HttpClient() = default;

}  // namespace pvn
