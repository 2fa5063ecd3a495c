// chain_traffic: HTTP through a deployed PVN chain in the canonical Testbed.
//
// Why: nearly all the work is dataplane — netsim links, sdn switch lookups
// over a small table, the mbox chain and proto TCP/HTTP. The control plane
// does one deploy, in set-up.
//
// standard_pvnc() (TLS/DNS validators, PII detector, tracker blocker) is
// deployed during set-up; then the last mile gets 1% loss. Eight closed-loop
// HttpLoadGen clients fetch seeded object sizes, log-uniform from 1 KB (per
// packet and per connection cost dominates) to 500 KB, with a seeded think
// time after each fetch. Open-loop TelemetryEmitter beacons on a fixed
// schedule leak PII to the web server and ping the tracker, so the chain's
// modules produce findings; the check recounts the expected findings from
// the packets that reached the switch. The seed also picks the last-mile
// latency (6-10 ms).
#include <algorithm>
#include <cstring>

#include "bench.h"
#include "testbed/testbed.h"
#include "web.h"

namespace perfbench {

using namespace pvn;

namespace {

constexpr Port kObjectPort = 8080;

class ChainTraffic : public Workload {
 public:
  ChainTraffic(std::uint64_t seed, Scale scale)
      : seed_(seed),
        loaders_(scale == Scale::kToy ? 3 : 8),
        fetches_per_loader_(scale == Scale::kToy ? 6 : 200),
        beacons_(scale == Scale::kToy ? 4 : 20) {}

  void setup() override {
    Rng rng(seed_ * 0x9E3779B97F4A7C15ull + 23);
    TestbedConfig cfg;
    cfg.seed = seed_;
    cfg.access.latency = microseconds(rng.uniform_int(7500, 8500));
    tb_ = std::make_unique<Testbed>(cfg);
    objects_ = std::make_unique<ObjectServer>(*tb_->web, kObjectPort);
    if (plant == "truncated_fetch") objects_->plant_truncation();

    pvnc_ = tb_->standard_pvnc();
    deploy_ = tb_->deploy(pvnc_);
    tb_->access_link->set_loss(0.01);

    const std::vector<std::size_t> all_sizes = log_uniform_sizes(
        rng, static_cast<std::size_t>(loaders_ * fetches_per_loader_), 1024,
        500 * 1024);
    std::vector<int> thinks(static_cast<std::size_t>(loaders_));
    for (int l = 0; l < loaders_; ++l) thinks[static_cast<std::size_t>(l)] = l;
    shuffle(rng, thinks);
    for (int l = 0; l < loaders_; ++l) {
      const auto first = all_sizes.begin() + l * fetches_per_loader_;
      std::vector<std::size_t> sizes(first, first + fetches_per_loader_);
      // Think times are stratified across the loaders too: 20-100 ms.
      const SimDuration think = microseconds(static_cast<std::int64_t>(
          20000 + 80000 * (static_cast<double>(thinks[static_cast<std::size_t>(l)]) +
                           rng.uniform()) / loaders_));
      loaders_v_.push_back(std::make_unique<Loader>(
          *tb_->client, tb_->addrs.web, kObjectPort, std::move(sizes), think));
      starts_.push_back(milliseconds(rng.uniform_int(0, 200)));
    }
    pii_beacon_ = std::make_unique<TelemetryEmitter>(
        *tb_->client, tb_->addrs.web, 80,
        std::vector<std::string>{
            "imei=" + std::to_string(350000000000000ull + rng.uniform_int(0, 99999999)),
            "email=user" + std::to_string(rng.uniform_int(0, 9999)) + "@example.com"});
    tracker_beacon_ = std::make_unique<TelemetryEmitter>(
        *tb_->client, tb_->addrs.tracker, 80,
        std::vector<std::string>{"uid=" + std::to_string(rng.uniform_int(0, 1 << 30))});

    // Recount, from the packets that reach the switch, the findings the
    // chain must report. This runs in every run: it is the findings check.
    chain_ = tb_->mbox_host->chain(deploy_.chain_id);
    findings_before_ = chain_ != nullptr ? chain_->findings().size() : 0;
    tb_->access_link->add_tap([this](const Packet& pkt, const Node&,
                                     const Node& to) {
      if (&to == tb_->access_sw) expect_findings(pkt);
    });
    tb_->access_sw->port_link(1)->add_tap([this](const Packet& pkt, const Node&, const Node& to) {
      if (&to == tb_->access_sw) expect_findings(pkt);
    });
  }

  void arm_trace(Capture& cap, Peaks& peaks) override {
    cap_ = &cap;
    for (int t = 0; t < 2; ++t) {
      for (const FlowRule& r : tb_->access_sw->table(t).rules())
        cap.infra.emplace_back(t, r);
    }
    cap.chain_pvnc = pvnc_;
    cap.store = tb_->store.get();
    cap.sessions = 1;
    tap_switch_ingress(*tb_->access_sw, cap);
    tap_control_frames(*tb_->control, cap);
    auto gauges = queue_gauges(tb_->net);
    Simulator& sim = tb_->net.sim();
    poll_every(sim, milliseconds(1), sim.now() + kMaxRun,
               [this, &peaks, gauges] {
                 ++peaks.polls;
                 for (const auto* g : gauges)
                   peaks.queued_bytes = std::max(peaks.queued_bytes, g->value());
                 peaks.rules = std::max(peaks.rules,
                                        tb_->access_sw->table(0).size() +
                                            tb_->access_sw->table(1).size());
                 peaks.mbox_memory = std::max(peaks.mbox_memory,
                                              tb_->mbox_host->memory_in_use());
               });
  }

  void run() override {
    Simulator& sim = tb_->net.sim();
    const SimTime t0 = sim.now();
    for (std::size_t l = 0; l < loaders_v_.size(); ++l) {
      Loader* loader = loaders_v_[l].get();
      sim.schedule_after(starts_[l], SimCategory::kWorkload,
                         [loader] { loader->start(); });
    }
    pii_beacon_->start(beacons_, milliseconds(250));
    tracker_beacon_->start(beacons_, milliseconds(400));
    // Closed loop: run until every loader has finished (checked on a fixed
    // simulated-time grid, so the horizon is deterministic too).
    for (SimTime t = t0 + kStep;
         t <= t0 + kMaxRun &&
         !std::all_of(loaders_v_.begin(), loaders_v_.end(),
                      [](const auto& l) { return l->done(); });
         t += kStep) {
      sim.run_until(t);
    }
  }

  Outcome collect() override {
    Outcome out;
    Digest digest;
    out.sessions = 1;
    if (deploy_.ok) {
      out.sessions_active = 1;
      out.deploy_ms.push_back(static_cast<double>(deploy_.elapsed) / 1e6);
    } else {
      out.sessions_failed = 1;
      out.failures.push_back("set-up deploy failed: " + deploy_.failure);
    }
    digest.add(static_cast<std::uint64_t>(deploy_.elapsed));
    for (const auto& loader : loaders_v_) loader->report(out, digest);

    // Findings must match the planted beacons exactly.
    std::uint64_t pii = 0, tracker = 0, other = 0;
    if (chain_ != nullptr) {
      const auto& f = chain_->findings();
      for (std::size_t i = findings_before_; i < f.size(); ++i) {
        if (f[i].kind == "pii-leak") {
          ++pii;
        } else if (f[i].kind == "tracker-blocked") {
          ++tracker;
        } else {
          ++other;
        }
      }
    }
    digest.add(pii);
    digest.add(tracker);
    out.check(pii == expected_pii_ && tracker == expected_tracker_ &&
                  other == 0 && pii > 0 && tracker > 0,
              "chain findings pii=" + std::to_string(pii) + " tracker=" +
                  std::to_string(tracker) + " other=" + std::to_string(other) +
                  ", planted beacons imply pii=" +
                  std::to_string(expected_pii_) +
                  " tracker=" + std::to_string(expected_tracker_));
    check_links(tb_->net, out);
    out.link_delivered = links_delivered(tb_->net);
    digest.add(out.link_delivered);
    out.digest = digest.value();
    return out;
  }

  TcpTotals tcp_totals() const override { return objects_->tcp_totals(); }

  Network& net() override { return tb_->net; }

 private:
  static constexpr SimDuration kMaxRun = seconds(300);
  static constexpr SimDuration kStep = milliseconds(100);

  // The chain sees every device packet that reaches the switch except
  // management traffic. The PII detector (block mode) reports each pattern
  // occurrence past the L4 header and drops the packet; the tracker blocker
  // then reports each surviving packet bound for the tracker.
  void expect_findings(const Packet& pkt) {
    const Ipv4Addr dev = tb_->addrs.client;
    const Ipv4Addr control = tb_->addrs.control;
    if (pkt.ip.src != dev && pkt.ip.dst != dev) return;
    if (pkt.ip.src == control || pkt.ip.dst == control) return;
    if (cap_ != nullptr && cap_->chain_pkts.size() < cap_->max_ops)
      cap_->chain_pkts.push_back(bare_copy(pkt));
    const Bytes& l4 = pkt.l4.get();
    std::size_t header = 0;
    if (pkt.ip.proto == IpProto::kTcp) header = TcpHeader::kWireSize;
    if (pkt.ip.proto == IpProto::kUdp) header = UdpHeader::kWireSize;
    std::uint64_t hits = 0;
    // Every testbed PII pattern contains '=', so one memchr clears the bulk
    // of the traffic (object bodies) before the per-pattern search.
    if (l4.size() > header &&
        std::memchr(l4.data() + header, '=', l4.size() - header) != nullptr) {
      for (const std::string& p : tb_->store_env.pii_patterns) {
        auto it = l4.begin() + static_cast<std::ptrdiff_t>(header);
        while ((it = std::search(it, l4.end(), p.begin(), p.end())) != l4.end()) {
          ++hits;
          ++it;
        }
      }
    }
    expected_pii_ += hits;
    if (hits == 0 && pkt.ip.dst == tb_->addrs.tracker) ++expected_tracker_;
  }

  std::uint64_t seed_;
  int loaders_;
  int fetches_per_loader_;
  int beacons_;
  std::unique_ptr<Testbed> tb_;
  std::unique_ptr<ObjectServer> objects_;
  Pvnc pvnc_;
  DeployOutcome deploy_;
  std::vector<std::unique_ptr<Loader>> loaders_v_;
  std::vector<SimDuration> starts_;
  std::unique_ptr<TelemetryEmitter> pii_beacon_;
  std::unique_ptr<TelemetryEmitter> tracker_beacon_;
  Chain* chain_ = nullptr;
  std::size_t findings_before_ = 0;
  std::uint64_t expected_pii_ = 0;
  std::uint64_t expected_tracker_ = 0;
  Capture* cap_ = nullptr;
};

}  // namespace

std::unique_ptr<Workload> make_chain_traffic(std::uint64_t seed, Scale scale) {
  return std::make_unique<ChainTraffic>(seed, scale);
}

}  // namespace perfbench
