// churn_mixed: ~1,000 standing sessions behind one switch, with dataplane
// traffic and session churn running together.
//
// Why: the same flow table serves writes mixed with lookups over a large
// table — the pattern the flow table's dirty-index-plus-rebuild-on-lookup
// handles worst — so an index change that helps deploy_storm but slows
// lookups, or the reverse, shows up here. It also exercises lease sweeps and
// mbox create/destroy while the dataplane is loaded.
//
// The topology is built here: 1,200 client hosts on switch ports 0..1199
// (ServerConfig::client_port_for), a WAN sink on port 1200 and the control
// host on port 1201; each last mile gets a seeded latency of 2-15 ms. Set-up
// deploys 1,000 standing sessions (6 s leases).
// During the run, sessions arrive and depart open loop on seeded Poisson
// schedules (20/s each); half of the departures tear down, half go silent
// and are reclaimed by lease expiry. Every active device streams 10 UDP
// datagrams/s through its chain to the sink, and 40 standing devices fetch
// seeded objects (1-100 KB) from the sink in a closed loop.
#include <algorithm>
#include <map>
#include <set>

#include "bench.h"
#include "mbox/host.h"
#include "mbox/registry.h"
#include "pvn/billing.h"
#include "pvn/client.h"
#include "pvn/server.h"
#include "sdn/controller.h"
#include "testbed/population.h"
#include "web.h"

namespace perfbench {

using namespace pvn;

namespace {

constexpr Port kStreamPort = 9000;
constexpr Port kObjectPort = 8080;

class ChurnMixed : public Workload {
 public:
  ChurnMixed(std::uint64_t seed, Scale scale)
      : seed_(seed),
        net_(seed),
        devices_(scale == Scale::kToy ? 120 : 1200),
        standing_(scale == Scale::kToy ? 100 : 1000),
        fetchers_(scale == Scale::kToy ? 5 : 40) {}

  void setup() override {
    Rng rng(seed_ * 0x9E3779B97F4A7C15ull + 37);
    LinkParams access;
    access.rate = Rate::mbps(50);
    LinkParams core;
    core.rate = Rate::mbps(10'000);
    core.latency = milliseconds(1);

    sw_ = &net_.add_node<SdnSwitch>("churn-sw", 2);
    devs_.resize(static_cast<std::size_t>(devices_));
    for (int i = 0; i < devices_; ++i) {
      Host& h = net_.add_node<Host>("dev-" + std::to_string(i),
                                    PopulationTestbed::client_addr(i));
      net_.connect(h, *sw_, access);  // switch port i; latency set below
      devs_[static_cast<std::size_t>(i)].host = &h;
      port_of_[h.addr()] = i;
    }
    sink_ = &net_.add_node<Host>("sink", kSink);
    control_ = &net_.add_node<Host>("control", kControl);
    net_.connect(*sink_, *sw_, core);     // port devices_
    net_.connect(*control_, *sw_, core);  // port devices_ + 1
    const int wan_port = devices_;
    const int control_port = devices_ + 1;

    // Infrastructure forwarding: control and every subscriber by exact
    // destination, everything else to the WAN.
    sw_->set_default_port(wan_port);
    const auto infra = [this](Ipv4Addr dst, int port) {
      FlowRule r;
      r.priority = 0;
      r.match.dst = Prefix{dst, 32};
      r.cookie = "infra";
      r.actions.push_back(ActOutput{port});
      sw_->table(0).add(std::move(r));
    };
    infra(kControl, control_port);
    for (int i = 0; i < devices_; ++i) infra(PopulationTestbed::client_addr(i), i);

    StoreEnvironment env;
    env.tracker_addrs = {Ipv4Addr{6, 6, 6, 6}};
    env.pii_patterns = {"imei=", "lat=", "password=", "email="};
    store_ = std::make_unique<PvnStore>(make_standard_store(env));
    MboxHostConfig mcfg;
    mcfg.memory_budget = 64LL * kGiB;
    mbox_ = std::make_unique<MboxHost>(net_.sim(), mcfg);
    controller_ = std::make_unique<Controller>(net_.sim());
    controller_->manage(*sw_);
    ledger_ = std::make_unique<Ledger>();
    ServerConfig scfg;
    scfg.switch_name = sw_->name();
    scfg.switch_wan_port = wan_port;
    scfg.switch_control_port = control_port;
    scfg.client_port_for = [this](Ipv4Addr a) { return port_of_.at(a); };
    scfg.lease_duration = kLease;
    scfg.network_name = "churn-net";
    server_ = std::make_unique<DeploymentServer>(*control_, *store_, *mbox_,
                                                 *controller_, *ledger_, scfg);

    sink_->bind_udp(kStreamPort, [this](Ipv4Addr, Port, Port, const Bytes&) {
      ++received_;
    });
    objects_ = std::make_unique<ObjectServer>(*sink_, kObjectPort);
    if (plant == "truncated_fetch") objects_->plant_truncation();

    // --- seeded inputs -----------------------------------------------------
    std::vector<int> order(static_cast<std::size_t>(devices_));
    for (int i = 0; i < devices_; ++i) order[static_cast<std::size_t>(i)] = i;
    shuffle(rng, order);
    const std::vector<std::size_t> sizes = log_uniform_sizes(
        rng, static_cast<std::size_t>(fetchers_ * kFetches), 1024, 100 * 1024);
    auto next_size = sizes.begin();
    // Last-mile latencies, 2-15 ms, stratified separately over the fetching
    // devices so their latency mix does not swing with the seed.
    const auto fetcher_ms = stratified_uniform(rng, static_cast<std::size_t>(fetchers_), 2, 15);
    const auto other_ms = stratified_uniform(
        rng, static_cast<std::size_t>(devices_ - fetchers_), 2, 15);
    for (int k = 0; k < devices_; ++k) {
      Dev& d = devs_[static_cast<std::size_t>(order[static_cast<std::size_t>(k)])];
      d.standing = k < standing_;
      d.fetcher = k < fetchers_;
      const double ms = d.fetcher ? fetcher_ms[static_cast<std::size_t>(k)]
                                  : other_ms[static_cast<std::size_t>(k - fetchers_)];
      d.host->port_link(0)->set_latency(static_cast<SimDuration>(ms * 1e6));
    }
    for (int i = 0; i < devices_; ++i) {
      Dev& d = devs_[static_cast<std::size_t>(i)];
      Pvnc pvnc;
      pvnc.name = "dev-" + std::to_string(i);
      pvnc.chain.push_back(PvncModule{"pii-detector", {{"action", "block"}}});
      pvnc.chain.push_back(PvncModule{"tracker-blocker", {}});
      d.agent = std::make_unique<PvnClient>(*d.host, pvnc);
      const std::size_t idx = static_cast<std::size_t>(i);
      d.agent->set_state_callback([this, idx](SessionState s) { on_state(idx, s); });
      d.stream_phase = static_cast<SimDuration>(rng.uniform(0.0, 1.0) * 1e8);
      d.start = static_cast<SimTime>(rng.uniform(0.0, 1.0) * 1e9);
      if (d.fetcher) {
        d.loader = std::make_unique<Loader>(
            *d.host, kSink, kObjectPort,
            std::vector<std::size_t>(next_size, next_size + kFetches),
            milliseconds(200));
        next_size += kFetches;
      }
    }
    // Open-loop churn schedule over the run, drawn up front: Poisson
    // arrivals and departures conditioned on their expected counts (sorted
    // uniform instants), so every seed churns the same number of sessions.
    const double churn_window = to_seconds(kRun - seconds(2));
    const auto instants = [&](double rate) {
      std::vector<double> t(static_cast<std::size_t>(rate * churn_window));
      for (double& x : t) x = rng.uniform(0.0, churn_window);
      std::sort(t.begin(), t.end());
      return t;
    };
    for (double t : instants(kArrivalRate)) {
      arrivals_.push_back({static_cast<SimDuration>(t * 1e9), rng.uniform()});
    }
    const std::vector<double> leave = instants(kDepartureRate);
    std::vector<char> teardown(leave.size());  // half tear down, half go silent
    for (std::size_t i = 0; i < teardown.size(); ++i) teardown[i] = i % 2 == 0;
    shuffle(rng, teardown);
    for (std::size_t i = 0; i < leave.size(); ++i) {
      departures_.push_back(
          {static_cast<SimDuration>(leave[i] * 1e9), rng.uniform(), teardown[i] != 0});
    }

    // Standing sessions come up before the measured run.
    for (Dev& d : devs_) {
      if (!d.standing) continue;
      ++sessions_;
      Dev* dp = &d;
      net_.sim().schedule_at(d.start, SimCategory::kWorkload, [this, dp] {
        start(*dp);
      });
    }
    net_.sim().run_until(kSetupHorizon);
  }

  void arm_trace(Capture& cap, Peaks& peaks) override {
    cap_ = &cap;
    // The standing sessions' rules are part of the initial table.
    for (int t = 0; t < 2; ++t) {
      for (const FlowRule& r : sw_->table(t).rules()) cap.infra.emplace_back(t, r);
    }
    for (const std::string& dev : server_->deployed_devices()) {
      installed_.insert("pvn:" + dev);
    }
    cap.chain_pvnc = devs_.front().agent->pvnc();
    cap.store = store_.get();
    tap_switch_ingress(*sw_, cap);
    tap_control_frames(*control_, cap);
    // Packets headed into a chain: device traffic that is not management.
    for (Dev& d : devs_) {
      d.host->port_link(0)->add_tap([this, &d](const Packet& pkt, const Node&,
                                               const Node& to) {
        if (&to == sw_ && d.agent->state() == SessionState::kActive &&
            pkt.ip.dst != kControl && cap_->chain_pkts.size() < cap_->max_ops)
          cap_->chain_pkts.push_back(bare_copy(pkt));
      });
    }
    auto gauges = queue_gauges(net_);
    poll_every(net_.sim(), milliseconds(1), net_.sim().now() + kRun,
               [this, &peaks, gauges] {
                 ++peaks.polls;
                 for (const auto* g : gauges)
                   peaks.queued_bytes = std::max(peaks.queued_bytes, g->value());
                 peaks.rules = std::max(peaks.rules, sw_->table(0).size() +
                                                         sw_->table(1).size());
                 peaks.pending_deploys =
                     std::max(peaks.pending_deploys, server_->pending_deploys());
                 peaks.mbox_memory =
                     std::max(peaks.mbox_memory, mbox_->memory_in_use());
                 capture_removals();
               });
  }

  void run() override {
    Simulator& sim = net_.sim();
    t0_ = sim.now();
    stream_end_ = t0_ + kRun - milliseconds(200);
    for (Dev& d : devs_) {
      if (d.agent->state() == SessionState::kActive) start_stream(d);
      if (d.loader) d.loader->start();
    }
    for (const Arrival& a : arrivals_) {
      sim.schedule_at(t0_ + a.at, SimCategory::kWorkload, [this, a] {
        std::vector<Dev*> idle;
        for (Dev& d : devs_) {
          if (!d.fetcher && !d.in_session) idle.push_back(&d);
        }
        if (idle.empty()) return;
        ++sessions_;
        start(*idle[static_cast<std::size_t>(a.pick * static_cast<double>(idle.size()))]);
      });
    }
    for (const Departure& dep : departures_) {
      sim.schedule_at(t0_ + dep.at, SimCategory::kWorkload, [this, dep] {
        std::vector<Dev*> active;
        for (Dev& d : devs_) {
          if (!d.fetcher && d.in_session &&
              d.agent->state() == SessionState::kActive)
            active.push_back(&d);
        }
        if (active.empty()) return;
        Dev& d = *active[static_cast<std::size_t>(
            dep.pick * static_cast<double>(active.size()))];
        if (dep.teardown) d.agent->teardown(kControl);
        d.agent->stop_session();
        d.in_session = false;
        d.left_at = net_.sim().now();
        d.left_silently = !dep.teardown;
        ++departed_;
      });
    }
    sim.run_until(t0_ + kRun);
  }

  Outcome collect() override {
    Outcome out;
    Digest digest;
    out.sessions = sessions_;
    out.sessions_active = reached_active_;
    out.deploy_ms = deploy_ms_;
    for (double ms : deploy_ms_) digest.add_double(ms);
    const SimTime now = net_.sim().now();
    std::uint64_t unbacked = 0;  // active without a deployment
    std::uint64_t stale = 0;     // deployed without an owner
    std::set<std::string> deployed;
    for (const std::string& dev : server_->deployed_devices()) deployed.insert(dev);
    for (const Dev& d : devs_) {
      const std::string& name = d.agent->pvnc().name;
      const bool active = d.agent->state() == SessionState::kActive;
      digest.add(static_cast<std::uint64_t>(d.agent->state()));
      if (d.in_session && !active) ++out.sessions_failed;
      if (active && !deployed.count(name)) ++unbacked;
      // A deployment must belong to an active device, or to one that went
      // silent less than a lease (plus the sweep period) ago.
      if (!active && deployed.count(name) &&
          !(d.left_silently && now - d.left_at <= kLease + kLease / 4 + seconds(1)))
        ++stale;
      if (d.loader) d.loader->report(out, digest);
    }
    if (out.sessions_failed > 0) {
      out.failures.push_back(std::to_string(out.sessions_failed) +
                             " session(s) not active at the horizon");
    }
    out.check(unbacked == 0, std::to_string(unbacked) +
                                 " active device(s) without a deployment");
    out.check(stale == 0, std::to_string(stale) + " stale deployment(s)");
    out.check(received_ == sent_, "sink received " + std::to_string(received_) +
                                      " of " + std::to_string(sent_) +
                                      " stream datagrams");
    digest.add(sent_);
    digest.add(departed_);
    digest.add(server_->leases_expired());
    check_links(net_, out);
    out.link_delivered = links_delivered(net_);
    digest.add(out.link_delivered);
    out.digest = digest.value();
    if (cap_ != nullptr) cap_->sessions = sessions_;
    return out;
  }

  TcpTotals tcp_totals() const override { return objects_->tcp_totals(); }

  Network& net() override { return net_; }

 private:
  static constexpr Ipv4Addr kSink{93, 184, 216, 80};
  static constexpr Ipv4Addr kControl{10, 0, 0, 5};
  static constexpr SimDuration kLease = seconds(6);
  static constexpr SimTime kSetupHorizon = seconds(4);
  static constexpr SimDuration kRun = seconds(10);
  static constexpr double kArrivalRate = 20.0;    // sessions / s
  static constexpr double kDepartureRate = 20.0;  // sessions / s
  static constexpr SimDuration kStreamGap = milliseconds(100);
  static constexpr int kFetches = 20;  // per fetching device

  struct Dev {
    Host* host = nullptr;
    std::unique_ptr<PvnClient> agent;
    std::unique_ptr<Loader> loader;
    bool standing = false;
    bool fetcher = false;
    bool in_session = false;
    bool streaming = false;
    bool left_silently = false;
    SimTime left_at = 0;
    SimTime start = 0;
    SimDuration stream_phase = 0;
  };
  struct Arrival {
    SimDuration at;
    double pick;
  };
  struct Departure {
    SimDuration at;
    double pick;
    bool teardown;
  };

  void start(Dev& d) {
    d.in_session = true;
    d.agent->start_session(kControl, [this](const DeployOutcome& o) {
      if (o.ok) deploy_ms_.push_back(static_cast<double>(o.elapsed) / 1e6);
    });
  }

  void on_state(std::size_t idx, SessionState s) {
    Dev& d = devs_[idx];
    if (s != SessionState::kActive) return;
    ++reached_active_;
    if (t0_ > 0) start_stream(d);
    if (cap_ != nullptr) {
      const std::string cookie = "pvn:" + d.agent->pvnc().name;
      if (installed_.count(cookie)) cap_->remove(cookie);
      installed_.insert(cookie);
      DeploymentContext ctx;
      ctx.device = d.host->addr();
      ctx.client_port = static_cast<int>(idx);
      ctx.wan_port = devices_;
      ctx.chain_id = d.agent->chain_id();
      ctx.cookie = cookie;
      ctx.control = kControl;
      ctx.control_port = devices_ + 1;
      cap_->add_compiled(d.agent->pvnc(), ctx);
    }
  }

  // Constant-rate UDP while the session is active (open loop).
  void start_stream(Dev& d) {
    if (d.streaming) return;
    d.streaming = true;
    Dev* dp = &d;
    net_.sim().schedule_after(d.stream_phase, SimCategory::kWorkload,
                              [this, dp] { stream_tick(*dp); });
  }

  void stream_tick(Dev& d) {
    if (d.agent->state() != SessionState::kActive ||
        net_.sim().now() >= stream_end_) {
      d.streaming = false;
      return;
    }
    ++sent_;
    d.host->send_udp(kSink, kStreamPort, kStreamPort, Bytes(200, 0x5a));
    Dev* dp = &d;
    net_.sim().schedule_after(kStreamGap, SimCategory::kWorkload,
                              [this, dp] { stream_tick(*dp); });
  }

  // Traced run: rules leave the table on teardown and on lease expiry.
  void capture_removals() {
    if (server_->deployments_active() == last_active_ &&
        server_->leases_expired() == last_expired_)
      return;
    last_active_ = server_->deployments_active();
    last_expired_ = server_->leases_expired();
    std::set<std::string> now_deployed;
    for (const std::string& dev : server_->deployed_devices())
      now_deployed.insert("pvn:" + dev);
    for (auto it = installed_.begin(); it != installed_.end();) {
      if (!now_deployed.count(*it)) {
        cap_->remove(*it);
        it = installed_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::uint64_t seed_;
  Network net_;
  int devices_;
  int standing_;
  int fetchers_;
  SdnSwitch* sw_ = nullptr;
  Host* sink_ = nullptr;
  Host* control_ = nullptr;
  std::map<Ipv4Addr, int> port_of_;
  std::unique_ptr<PvnStore> store_;
  std::unique_ptr<MboxHost> mbox_;
  std::unique_ptr<Controller> controller_;
  std::unique_ptr<Ledger> ledger_;
  std::unique_ptr<DeploymentServer> server_;
  std::unique_ptr<ObjectServer> objects_;
  std::vector<Dev> devs_;
  std::vector<Arrival> arrivals_;
  std::vector<Departure> departures_;
  std::vector<double> deploy_ms_;
  std::uint64_t sessions_ = 0;
  std::uint64_t reached_active_ = 0;
  std::uint64_t departed_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  SimTime t0_ = 0;
  SimTime stream_end_ = 0;
  Capture* cap_ = nullptr;
  std::set<std::string> installed_;
  std::uint64_t last_active_ = 0;
  std::uint64_t last_expired_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_churn_mixed(std::uint64_t seed, Scale scale) {
  return std::make_unique<ChurnMixed>(seed, scale);
}

}  // namespace perfbench
