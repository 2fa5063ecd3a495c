// HTTP traffic of the benchmark: an object server whose TCP connections the
// benchmark can read statistics from, and closed-loop loaders built on
// HttpLoadGen that fetch a seeded sequence of object sizes.
#pragma once

#include <memory>
#include <vector>

#include "bench.h"
#include "workload/generators.h"

namespace perfbench {

// Serves /bytes/N like the stock HttpServer, but keeps every accepted
// TcpConnection so the run can report the sender side's TcpStats.
class ObjectServer {
 public:
  ObjectServer(pvn::Host& host, pvn::Port port);
  ~ObjectServer();

  // Test hook: serve one byte short on the first request.
  void plant_truncation() { truncate_next_ = true; }

  TcpTotals tcp_totals() const;

 private:
  struct Conn;
  std::vector<std::unique_ptr<Conn>> conns_;
  bool truncate_next_ = false;
};

// A closed-loop client: fetch, think, fetch the next size. Each fetch is one
// HttpLoadGen round of count 1, so the think time follows every fetch.
class Loader {
 public:
  Loader(pvn::Host& client, pvn::Ipv4Addr server, pvn::Port port,
         std::vector<std::size_t> sizes, pvn::SimDuration think);

  void start();
  bool done() const { return next_ == sizes_.size() && !in_flight_; }

  // Appends this loader's fetches to the outcome (a fetch still in flight
  // counts as attempted and failed) and to the digest.
  void report(Outcome& out, Digest& digest) const;

 private:
  void fetch_next();

  pvn::Host* client_;
  pvn::HttpLoadGen gen_;
  pvn::Ipv4Addr server_;
  pvn::Port port_;
  std::vector<std::size_t> sizes_;
  pvn::SimDuration think_;
  std::size_t next_ = 0;
  bool in_flight_ = false;
  std::vector<pvn::FetchTiming> timings_;
};

// Adds one fetch to the outcome; false when the fetch failed or is short.
bool record_fetch(const pvn::FetchTiming& t, std::size_t requested,
                  Outcome& out, Digest& digest);

}  // namespace perfbench
