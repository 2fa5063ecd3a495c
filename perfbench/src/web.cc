#include "web.h"

namespace perfbench {

using namespace pvn;

struct ObjectServer::Conn {
  TcpConnection* tcp = nullptr;
  HttpParser parser{HttpParser::Kind::kRequest, nullptr, nullptr};
};

ObjectServer::ObjectServer(Host& host, Port port) {
  host.tcp_listen(port, [this](TcpConnection& tcp) {
    auto conn = std::make_unique<Conn>();
    Conn* c = conn.get();
    c->tcp = &tcp;
    c->parser = HttpParser(
        HttpParser::Kind::kRequest,
        [this, c](HttpRequest req) {
          HttpResponse resp = synthesize_response(req);
          if (truncate_next_ && !resp.body.empty()) {
            resp.body.pop_back();
            truncate_next_ = false;
          }
          c->tcp->send(resp.serialize());
        },
        nullptr);
    tcp.on_data = [c](const Bytes& data) { c->parser.feed(data); };
    conns_.push_back(std::move(conn));
  });
}

ObjectServer::~ObjectServer() = default;

TcpTotals ObjectServer::tcp_totals() const {
  TcpTotals t;
  for (const auto& c : conns_) {
    const TcpStats& s = c->tcp->stats();
    t.segments_sent += s.segments_sent;
    t.retransmits += s.retransmits;
    t.timeouts += s.timeouts;
  }
  return t;
}

Loader::Loader(Host& client, Ipv4Addr server, Port port,
               std::vector<std::size_t> sizes, SimDuration think)
    : client_(&client),
      gen_(client),
      server_(server),
      port_(port),
      sizes_(std::move(sizes)),
      think_(think) {}

void Loader::start() { fetch_next(); }

void Loader::fetch_next() {
  if (next_ == sizes_.size()) return;
  const std::size_t size = sizes_[next_++];
  in_flight_ = true;
  gen_.run(server_, port_, "/bytes/" + std::to_string(size), 1, think_,
           [this](const LoadStats& stats) {
             timings_.insert(timings_.end(), stats.timings.begin(),
                             stats.timings.end());
             in_flight_ = false;
             // Start the next round from a fresh event: HttpLoadGen is
             // still inside its completion callback here.
             client_->sim().schedule_after(0, SimCategory::kWorkload,
                                           [this] { fetch_next(); });
           });
}

bool record_fetch(const FetchTiming& t, std::size_t requested, Outcome& out,
                  Digest& digest) {
  ++out.fetches;
  const bool good = t.ok && t.body_bytes == requested;
  digest.add(static_cast<std::uint64_t>(t.total()));
  digest.add(t.body_bytes);
  out.fetch_ms.push_back(static_cast<double>(t.total()) / 1e6);
  if (!good) {
    ++out.fetches_failed;
    return false;
  }
  out.fetch_bytes += t.body_bytes;
  out.fetch_busy_s += static_cast<double>(t.total()) / 1e9;
  return true;
}

void Loader::report(Outcome& out, Digest& digest) const {
  for (std::size_t i = 0; i < timings_.size(); ++i) {
    if (!record_fetch(timings_[i], sizes_[i], out, digest)) {
      out.failures.push_back(
          "fetch of " + std::to_string(sizes_[i]) + " bytes returned " +
          std::to_string(timings_[i].body_bytes) +
          (timings_[i].ok ? "" : " (failed)"));
    }
  }
  // Started but not finished by the horizon.
  const std::size_t started = next_;
  if (started > timings_.size()) {
    out.fetches += started - timings_.size();
    out.fetches_failed += started - timings_.size();
    out.failures.push_back(std::to_string(started - timings_.size()) +
                                 " fetch(es) unfinished at the horizon");
  }
}

}  // namespace perfbench
