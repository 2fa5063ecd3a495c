// Helpers shared by the workloads: outcome digest, link checks, capture taps,
// the simulated-time peak poller and the Chrome trace writer.
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "proto/l4.h"
#include "pvn/discovery.h"

namespace perfbench {

using namespace pvn;

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 1099511628211ull;
  }
}

void Digest::add(const std::string& s) {
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 1099511628211ull;
  }
  add(static_cast<std::uint64_t>(s.size()));
}

void Digest::add_double(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

std::vector<double> stratified_uniform(Rng& rng, std::size_t n, double lo,
                                       double hi) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + rng.uniform()) / static_cast<double>(n);
    v[i] = lo + u * (hi - lo);
  }
  shuffle(rng, v);
  return v;
}

std::vector<std::size_t> log_uniform_sizes(Rng& rng, std::size_t n, double lo,
                                           double hi) {
  std::vector<std::size_t> sizes;
  for (double l : stratified_uniform(rng, n, std::log(lo), std::log(hi))) {
    sizes.push_back(static_cast<std::size_t>(std::exp(l)));
  }
  return sizes;
}

namespace {

// Both directions of a link, as (from, stats) pairs.
template <typename F>
void for_each_direction(Network& net, F&& f) {
  for (const auto& link : net.links()) {
    f(*link, link->end_a(), link->end_b());
    f(*link, link->end_b(), link->end_a());
  }
}

}  // namespace

std::uint64_t links_delivered(Network& net) {
  std::uint64_t n = 0;
  for_each_direction(net, [&](const Link& l, const Node& from, const Node&) {
    n += l.stats_from(from).delivered_packets;
  });
  return n;
}

void check_links(Network& net, Outcome& out) {
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  bool conserved = true;
  std::string bad;
  for_each_direction(net, [&](const Link& l, const Node& from,
                              const Node& to) {
    const LinkStats& s = l.stats_from(from);
    // Every packet that started serializing is delivered, lost, refused by
    // a down receiver, or still on the wire: never more out than in.
    if (s.delivered_packets + s.loss_drops + s.rx_down_drops > s.tx_packets) {
      conserved = false;
      bad = from.name() + "->" + to.name();
    }
    delivered += s.delivered_packets;
    dropped += s.queue_drops + s.loss_drops + s.tx_down_drops + s.rx_down_drops;
  });
  const auto snap = telemetry::MetricsRegistry::global().snapshot_for(
      {"netsim.link.delivered_packets", "netsim.link.dropped_packets"});
  out.check(conserved, "link " + bad + " delivered more than it transmitted");
  out.check(snap.counter_total("netsim.link.delivered_packets") == delivered &&
                snap.counter_total("netsim.link.dropped_packets") == dropped,
            "link telemetry disagrees with link stats");
}

Packet bare_copy(const Packet& pkt) {
  Packet p;
  p.id = pkt.id;
  p.ip = pkt.ip;
  p.l4 = pkt.l4;
  p.created_at = pkt.created_at;
  return p;
}

void Capture::add_compiled(const Pvnc& pvnc, const DeploymentContext& ctx) {
  compiles.emplace_back(pvnc, ctx);
  for (auto& [table, rule] : compile_pvnc(pvnc, ctx).rules) {
    ReplayOp op;
    op.kind = ReplayOp::kAdd;
    op.table = table;
    op.rule = std::move(rule);
    flow_ops.push_back(std::move(op));
  }
}

void Capture::remove(const std::string& cookie) {
  ReplayOp op;
  op.kind = ReplayOp::kRemove;
  op.cookie = cookie;
  flow_ops.push_back(std::move(op));
}

void Capture::lookup(const Packet& pkt, int in_port) {
  if (flow_ops.size() >= max_ops) return;
  ReplayOp op;
  op.kind = ReplayOp::kLookup;
  op.pkt = bare_copy(pkt);
  op.in_port = in_port;
  flow_ops.push_back(std::move(op));
}

void tap_switch_ingress(SdnSwitch& sw, Capture& cap) {
  for (int port = 0; port < sw.port_count(); ++port) {
    Link* link = sw.port_link(port);
    if (link == nullptr) continue;
    link->add_tap([&cap, &sw, port](const Packet& pkt, const Node&,
                                    const Node& to) {
      if (&to == &sw) cap.lookup(pkt, port);
    });
  }
}

void tap_control_frames(Node& control, Capture& cap) {
  Link* link = control.port_link(0);
  if (link == nullptr) return;
  link->add_tap([&cap](const Packet& pkt, const Node&, const Node&) {
    if (pkt.ip.proto != IpProto::kUdp || cap.control_frames.size() >= cap.max_ops)
      return;
    const auto dgram = parse_udp(pkt.l4.get());
    if (!dgram) return;
    if (dgram->hdr.src_port == kPvnPort || dgram->hdr.dst_port == kPvnPort) {
      cap.control_frames.push_back(dgram->payload);
    }
  });
}

namespace {

void poll_step(Simulator& sim, SimDuration period, SimTime until,
               std::shared_ptr<std::function<void()>> sample) {
  (*sample)();
  if (sim.now() + period > until) return;
  sim.schedule_after(period, SimCategory::kOther,
                     [&sim, period, until, sample] {
                       poll_step(sim, period, until, sample);
                     });
}

}  // namespace

void poll_every(Simulator& sim, SimDuration period, SimTime until,
                std::function<void()> sample) {
  auto fn = std::make_shared<std::function<void()>>(std::move(sample));
  sim.schedule_after(0, SimCategory::kOther, [&sim, period, until, fn] {
    poll_step(sim, period, until, fn);
  });
}

std::vector<const telemetry::Gauge*> queue_gauges(Network& net) {
  std::vector<const telemetry::Gauge*> out;
  auto& reg = telemetry::MetricsRegistry::global();
  for_each_direction(net, [&](const Link&, const Node& from, const Node& to) {
    out.push_back(
        &reg.gauge("netsim.link.queued_bytes", from.name() + "->" + to.name()));
  });
  return out;
}

void WallTrace::add(std::string name, std::string cat, Clock::time_point t0,
                    Clock::time_point t1) {
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  recs_.push_back(Rec{std::move(name), std::move(cat), us(t0), us(t1) - us(t0)});
}

void WallTrace::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}\n",
                 i == 0 ? "" : ",", r.name.c_str(), r.cat.c_str(), r.start_us,
                 r.dur_us);
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

}  // namespace perfbench
