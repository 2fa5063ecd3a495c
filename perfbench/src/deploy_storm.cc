// deploy_storm: a flash crowd in PopulationTestbed.
//
// Why: nearly all the work is control plane — pvn client/server/compiler,
// sdn flow-table writes interleaved with control-packet lookups, mbox
// instantiation, telemetry lease spans and util timers. At about 3,000
// clients the control plane's super-linear cost dominates (every lookup after
// a rule write rebuilds the flow-table index), while one repetition stays
// about five seconds. There is no per-packet chain
// work; the only TCP is a small portal check (below), so proto metrics are
// expected not to move here.
//
// Closed loop: each client calls start_session once, at a seeded instant
// inside one 500 ms offer window, and then waits for offers and acks before
// its next step. Leases are 30 s, so the horizon (14 s) lies past the first
// renewal (lease / 3, jittered). Each client's last mile gets a seeded
// latency of 2-15 ms. One client in ten, once active, fetches a
// seeded portal object (1-32 KB) from the access network's control host;
// that traffic bypasses the chain by design.
#include <set>

#include "bench.h"
#include "testbed/population.h"
#include "web.h"

namespace perfbench {

using namespace pvn;

namespace {

constexpr Port kPortalPort = 8080;

class DeployStorm : public Workload {
 public:
  DeployStorm(std::uint64_t seed, Scale scale)
      : seed_(seed), clients_(scale == Scale::kToy ? 150 : 3000) {}

  void setup() override {
    PopulationConfig cfg;
    cfg.clients = clients_;
    cfg.seed = seed_;
    cfg.lease_duration = seconds(30);
    tb_ = std::make_unique<PopulationTestbed>(cfg);
    tb_->make_agents();
    portal_ = std::make_unique<ObjectServer>(*tb_->control_a, kPortalPort);
    if (plant == "truncated_fetch") portal_->plant_truncation();

    // Every input is drawn here, from the seed alone.
    Rng rng(seed_ * 0x9E3779B97F4A7C15ull + 11);
    const std::size_t n = static_cast<std::size_t>(clients_);
    devs_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      tb_->agents[i]->set_state_callback([this, i](SessionState s) { on_state(i, s); });
      devs_[i].start = static_cast<SimTime>(rng.uniform(0.0, 0.5) * 1e9);
    }
    // The first tenth of a seeded order fetches. Last-mile latencies are
    // stratified separately over fetchers and the rest, so the fetchers'
    // latency mix does not swing with the seed.
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    shuffle(rng, order);
    const std::size_t fetchers = n / 10;
    const auto fetcher_ms = stratified_uniform(rng, fetchers, 2, 15);
    const auto other_ms = stratified_uniform(rng, n - fetchers, 2, 15);
    const std::vector<std::size_t> sizes = log_uniform_sizes(rng, fetchers, 1024, 32768);
    for (std::size_t k = 0; k < n; ++k) {
      const double ms = k < fetchers ? fetcher_ms[k] : other_ms[k - fetchers];
      tb_->access_links[order[k]]->set_latency(static_cast<SimDuration>(ms * 1e6));
      if (k >= fetchers) continue;
      Dev& d = devs_[order[k]];
      d.loader = std::make_unique<Loader>(*tb_->clients[order[k]],
                                          tb_->addrs.control_a, kPortalPort,
                                          std::vector<std::size_t>{sizes[k]}, 0);
      d.fetch_delay = static_cast<SimDuration>(rng.uniform(0.0, 2.0) * 1e9);
    }
  }

  void arm_trace(Capture& cap, Peaks& peaks) override {
    cap_ = &cap;
    cap.sessions = devs_.size();
    for (const FlowRule& r : tb_->sw_a->table(0).rules()) cap.infra.emplace_back(0, r);
    tap_switch_ingress(*tb_->sw_a, cap);
    tap_control_frames(*tb_->control_a, cap);
    auto gauges = queue_gauges(tb_->net);
    poll_every(tb_->net.sim(), milliseconds(1), kHorizon,
               [this, &peaks, gauges] {
                 ++peaks.polls;
                 for (const auto* g : gauges)
                   peaks.queued_bytes = std::max(peaks.queued_bytes, g->value());
                 peaks.rules = std::max(peaks.rules,
                                        tb_->sw_a->table(0).size() +
                                            tb_->sw_a->table(1).size());
                 peaks.pending_deploys = std::max(
                     peaks.pending_deploys, tb_->a.server->pending_deploys());
                 peaks.mbox_memory =
                     std::max(peaks.mbox_memory, tb_->a.mbox->memory_in_use());
               });
  }

  void run() override {
    Simulator& sim = tb_->net.sim();
    for (std::size_t idx = 0; idx < devs_.size(); ++idx) {
      sim.schedule_at(devs_[idx].start, SimCategory::kWorkload, [this, idx] {
        tb_->agents[idx]->start_session(
            tb_->addrs.control_a,
            [this, idx](const DeployOutcome& o) { devs_[idx].outcomes.push_back(o); });
      });
    }
    sim.run_until(kHorizon);
  }

  Outcome collect() override {
    Outcome out;
    Digest digest;
    std::set<std::string> active;
    for (std::size_t i = 0; i < devs_.size(); ++i) {
      const Dev& d = devs_[i];
      const PvnClient& agent = *tb_->agents[i];
      ++out.sessions;
      if (d.reached_active) ++out.sessions_active;
      for (const DeployOutcome& o : d.outcomes) {
        digest.add(static_cast<std::uint64_t>(o.elapsed));
        digest.add(o.ok ? 1 : 0);
        if (o.ok) out.deploy_ms.push_back(static_cast<double>(o.elapsed) / 1e6);
      }
      digest.add(static_cast<std::uint64_t>(agent.state()));
      if (agent.state() == SessionState::kActive) {
        active.insert(agent.pvnc().name);
      } else {
        ++out.sessions_failed;
      }
      if (d.loader) d.loader->report(out, digest);
    }
    // Every session is active or accounted as failed, and the server's
    // deployment table agrees with the clients' view of who is active.
    if (out.sessions_failed > 0) {
      out.failures.push_back(std::to_string(out.sessions_failed) +
                             " session(s) not active at the horizon");
    }
    const auto deployed = tb_->a.server->deployed_devices();
    out.check(std::set<std::string>(deployed.begin(), deployed.end()) == active,
              "server deployments disagree with active clients");
    check_links(tb_->net, out);
    out.link_delivered = links_delivered(tb_->net);
    digest.add(out.link_delivered);
    out.digest = digest.value();
    return out;
  }

  TcpTotals tcp_totals() const override { return portal_->tcp_totals(); }

  Network& net() override { return tb_->net; }

 private:
  static constexpr SimTime kHorizon = seconds(14);

  struct Dev {
    SimTime start = 0;
    std::unique_ptr<Loader> loader;  // portal check, one client in ten
    SimDuration fetch_delay = 0;
    bool reached_active = false;
    std::vector<DeployOutcome> outcomes;
  };

  void on_state(std::size_t idx, SessionState s) {
    Dev& d = devs_[idx];
    if (s != SessionState::kActive || d.reached_active) return;
    d.reached_active = true;
    if (cap_ != nullptr) {
      const PvnClient& agent = *tb_->agents[idx];
      DeploymentContext ctx;
      ctx.device = tb_->clients[idx]->addr();
      ctx.client_port = 0;
      ctx.wan_port = 0;
      ctx.control = tb_->addrs.control_a;
      ctx.control_port = 1;
      ctx.chain_id = agent.chain_id();
      ctx.cookie = "pvn:" + agent.pvnc().name;
      cap_->add_compiled(agent.pvnc(), ctx);
    }
    if (d.loader) {
      Loader* loader = d.loader.get();
      tb_->net.sim().schedule_after(d.fetch_delay, SimCategory::kWorkload,
                                    [loader] { loader->start(); });
    }
  }

  std::uint64_t seed_;
  int clients_;
  std::unique_ptr<PopulationTestbed> tb_;
  std::unique_ptr<ObjectServer> portal_;
  std::vector<Dev> devs_;
  Capture* cap_ = nullptr;
};

}  // namespace

std::unique_ptr<Workload> make_deploy_storm(std::uint64_t seed, Scale scale) {
  return std::make_unique<DeployStorm>(seed, scale);
}

}  // namespace perfbench
