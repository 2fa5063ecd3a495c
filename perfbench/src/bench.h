// Shared types of the end-to-end benchmark (see perfbench/README.md).
//
// A workload builds its scenario in set-up, simulates it in run(), and then
// reports what happened in simulated time (Outcome); a traced run also
// captures each layer's inputs (Capture). The driver in main.cc repeats
// set-up + run, takes medians of the wall times, and prints one JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mbox/registry.h"
#include "netsim/network.h"
#include "pvn/compiler.h"
#include "sdn/switch.h"
#include "telemetry/metrics.h"
#include "util/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Scenario sizes: "full" is the benchmark, "toy" is the self-test size.
enum class Scale { kFull, kToy };

// Benchmark-side wall-clock spans, written as a Chrome trace by the traced
// run. Spans wrap the benchmark's own calls into each layer.
class WallTrace {
 public:
  struct Rec {
    std::string name;
    std::string cat;
    double start_us = 0;
    double dur_us = 0;
  };
  explicit WallTrace(Clock::time_point origin) : origin_(origin) {}
  void add(std::string name, std::string cat, Clock::time_point t0,
           Clock::time_point t1);
  void write_chrome(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Rec> recs_;
};

// Everything a run produced in simulated time. Deterministic for a seed.
struct Outcome {
  std::vector<double> deploy_ms;  // DeployOutcome::elapsed of ok deploys
  std::vector<double> fetch_ms;   // FetchTiming::total() of every fetch
  std::uint64_t fetch_bytes = 0;  // in-order body bytes of ok fetches
  double fetch_busy_s = 0;        // sum of fetch durations (loader active)
  std::uint64_t sessions = 0;        // sessions attempted
  std::uint64_t sessions_failed = 0; // not active at horizon / deploy failed
  std::uint64_t fetches = 0;
  std::uint64_t fetches_failed = 0;  // failed or short
  std::uint64_t sessions_active = 0; // sessions that reached kActive
  std::uint64_t link_delivered = 0;  // netsim.link.delivered_packets
  // Whole-run checks (findings, conservation, agreement): each counts as
  // one attempted operation, and a failed one as a failed operation.
  std::uint64_t checks = 0;
  std::uint64_t checks_failed = 0;
  std::vector<std::string> failures;  // one line per failed check or op
  std::uint64_t digest = 0;  // over simulated-time outcomes

  void check(bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      ++checks_failed;
      failures.push_back(what);
    }
  }
};

// Sender-side TcpStats summed over an object server's connections.
struct TcpTotals {
  std::uint64_t segments_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
};

// One replayable operation captured from a traced run, in the order the
// workload produced it. Replay feeds these to the public entry points.
struct ReplayOp {
  enum Kind : std::uint8_t { kAdd, kRemove, kLookup };
  Kind kind = kLookup;
  int table = 0;        // kAdd
  pvn::FlowRule rule;   // kAdd
  std::string cookie;   // kRemove
  pvn::Packet pkt;      // kLookup
  int in_port = 0;      // kLookup
};

// What a traced run captures for the replay timers.
struct Capture {
  // Rules present when capture starts, as (table, rule).
  std::vector<std::pair<int, pvn::FlowRule>> infra;
  std::vector<ReplayOp> flow_ops;    // adds / removes / ingress lookups
  std::vector<pvn::Packet> chain_pkts;  // packets diverted into a chain
  pvn::Pvnc chain_pvnc;                 // the chain they went through
  const pvn::PvnStore* store = nullptr;  // builds that chain for replay
  std::vector<pvn::Bytes> control_frames;  // PVN UDP payloads
  std::vector<std::pair<pvn::Pvnc, pvn::DeploymentContext>> compiles;
  // Span pattern of the run for the telemetry replay.
  std::uint64_t spans_recorded = 0;
  std::uint64_t sessions = 0;
  std::size_t max_ops = 400000;  // capture budget (memory bound)

  void add_compiled(const pvn::Pvnc& pvnc, const pvn::DeploymentContext& ctx);
  void remove(const std::string& cookie);
  void lookup(const pvn::Packet& pkt, int in_port);
};

// Peak values polled from simulated time in a traced run.
struct Peaks {
  std::int64_t queued_bytes = 0;
  std::size_t rules = 0;
  std::size_t pending_deploys = 0;
  std::int64_t mbox_memory = 0;
  std::uint64_t polls = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds topology, agents and pre-deployed state (timed as setup_s).
  virtual void setup() = 0;
  // Arms capture hooks; called between setup() and run() in traced runs.
  virtual void arm_trace(Capture& cap, Peaks& peaks) = 0;
  // Simulates the fixed scenario (timed as run_wall_s).
  virtual void run() = 0;
  // Reads outcomes and runs the correctness checks.
  virtual Outcome collect() = 0;
  // TCP statistics of the workload's object server.
  virtual TcpTotals tcp_totals() const = 0;
  virtual pvn::Network& net() = 0;

  // Test hook: corrupt one outcome so the self-test can see a check trip.
  std::string plant;
};

std::unique_ptr<Workload> make_deploy_storm(std::uint64_t seed, Scale scale);
std::unique_ptr<Workload> make_chain_traffic(std::uint64_t seed, Scale scale);
std::unique_ptr<Workload> make_churn_mixed(std::uint64_t seed, Scale scale);

// --- helpers shared by the workloads (common.cc) ---------------------------

// FNV-1a over simulated-time outcomes.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(const std::string& s);
  void add_double(double v);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// Seeded Fisher-Yates shuffle.
template <typename T>
void shuffle(pvn::Rng& rng, std::vector<T>& v) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(i) - 1))]);
  }
}

// `n` values uniform over [lo, hi], in seeded order. The draw is stratified
// (one value per 1/n quantile band), so the mix of values — and with it the
// run's total work — is the same for every seed, while each value still
// comes from the seed.
std::vector<double> stratified_uniform(pvn::Rng& rng, std::size_t n, double lo,
                                       double hi);

// `n` object sizes, log-uniform over [lo, hi] bytes, stratified as above.
std::vector<std::size_t> log_uniform_sizes(pvn::Rng& rng, std::size_t n,
                                           double lo, double hi);

// A packet copy without the hop trace (replays ignore it, and copying it
// allocates).
pvn::Packet bare_copy(const pvn::Packet& pkt);

// Link packet conservation plus telemetry-vs-link-stats agreement.
void check_links(pvn::Network& net, Outcome& out);

// Sum of netsim.link.delivered_packets over every link (exact link stats).
std::uint64_t links_delivered(pvn::Network& net);

// Registers taps on every link into `sw` that record ingress packets for the
// flow-table lookup replay, and on the control host's link for PVN frames.
void tap_switch_ingress(pvn::SdnSwitch& sw, Capture& cap);
void tap_control_frames(pvn::Node& control, Capture& cap);

// Polls `sample` every `period` of simulated time until `until`, on events
// of category kOther (the traced run subtracts them from util.sim.events).
void poll_every(pvn::Simulator& sim, pvn::SimDuration period,
                pvn::SimTime until, std::function<void()> sample);

// Gauges of every link direction's queued bytes, for the peak poller.
std::vector<const pvn::telemetry::Gauge*> queue_gauges(pvn::Network& net);

}  // namespace perfbench
