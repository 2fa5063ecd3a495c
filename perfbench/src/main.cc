// perfbench: the end-to-end benchmark of the PVN simulator.
//
//   perfbench --workload <deploy_storm|chain_traffic|churn_mixed> --seed <n>
//             --seconds <s> --trace <0|1> [--scale toy] [--plant <bug>]
//             [--out <dir>]
//
// Untraced (--trace 0): repeats set-up + run of the workload's fixed scenario
// for about --seconds (one warm-up, then at least three timed repetitions),
// checks every repetition's outcomes, requires all repetitions to agree bit
// for bit, and reports the median wall times of the timed repetitions with
// the simulated-time outcomes.
//
// Traced (--trace 1): one untraced repetition, then one with the simulator
// profiler, capture taps, the peak poller and the replay timers on. Prints
// the per-layer metrics and writes a Chrome trace to <out>.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics ({name: {value, unit}}).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"
#include "replay.h"
#include "telemetry/span.h"

namespace perfbench {
namespace {

using namespace pvn;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Scale scale = Scale::kFull;
  std::string plant;
  std::string out = "perfbench/out";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--scale") {
      a.scale = v == "toy" ? Scale::kToy : Scale::kFull;
    } else if (k == "--plant") {
      a.plant = v;
    } else if (k == "--out") {
      a.out = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a.workload.empty();
}

std::unique_ptr<Workload> make(const Args& a) {
  std::unique_ptr<Workload> w;
  if (a.workload == "deploy_storm") w = make_deploy_storm(a.seed, a.scale);
  if (a.workload == "chain_traffic") w = make_chain_traffic(a.seed, a.scale);
  if (a.workload == "churn_mixed") w = make_churn_mixed(a.seed, a.scale);
  if (w) w->plant = a.plant;
  return w;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// The highest percentile <= q with at least ten samples beyond it (nearest
// rank); with ten samples or fewer, the median. Returns (value, percentile).
std::pair<double, double> percentile(std::vector<double> v, double q) {
  if (v.empty()) return {0, q};
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double p = std::max(0.5, std::min(q, 1.0 - 10.0 / n));
  const std::size_t rank =
      static_cast<std::size_t>(std::max(1.0, std::ceil(p * n))) - 1;
  return {v[rank], p};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// One repetition's wall clock and outcome.
struct Rep {
  double setup_s = 0;
  double run_s = 0;
  std::uint64_t run_packets = 0;  // link deliveries during run()
  Outcome out;
};

void reset_telemetry() {
  telemetry::MetricsRegistry::global().reset();
  telemetry::SpanRecorder::global().clear();
}

// Untraced repetition.
Rep run_once(const Args& a, WallTrace& trace) {
  reset_telemetry();
  Rep rep;
  auto w = make(a);
  const auto t0 = Clock::now();
  w->setup();
  const auto t1 = Clock::now();
  const std::uint64_t before = links_delivered(w->net());
  w->run();
  const auto t2 = Clock::now();
  rep.out = w->collect();
  rep.run_packets = rep.out.link_delivered - before;
  rep.setup_s = std::chrono::duration<double>(t1 - t0).count();
  rep.run_s = std::chrono::duration<double>(t2 - t1).count();
  trace.add("setup", "bench", t0, t1);
  trace.add("run", "bench", t1, t2);
  return rep;
}

struct Json {
  std::string body;
  void metric(const std::string& name, double value, const std::string& unit) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.9g", std::isfinite(value) ? value : 0.0);
    if (!body.empty()) body += ", ";
    body += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  }
};

struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
};

// Sums the operations of one outcome and prints its failures.
Totals account(const Outcome& o) {
  Totals t;
  t.attempted = o.sessions + o.fetches + o.checks;
  t.failed = o.sessions_failed + o.fetches_failed + o.checks_failed;
  t.correct = t.failed == 0;
  for (const std::string& f : o.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  return t;
}

void print_result(const Totals& t, const Json& j) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              t.correct ? "true" : "false",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed), j.body.c_str());
}

int timed(const Args& a) {
  WallTrace trace(Clock::now());
  const auto start = Clock::now();
  // The first repetition warms the allocator and the caches: it is checked
  // like the others but left out of the timings. Then repeat at least three
  // times, and while one more repetition of the median length so far still
  // fits in --seconds, so that a run ends close to --seconds.
  std::vector<Rep> reps;
  std::vector<double> lengths;
  for (;;) {
    const auto r0 = Clock::now();
    reps.push_back(run_once(a, trace));
    if (reps.size() > 1) lengths.push_back(seconds_since(r0));
    if (lengths.size() >= 3 && seconds_since(start) + median(lengths) > a.seconds) break;
  }
  const Outcome& o = reps.front().out;
  Totals t = account(o);
  for (const Rep& r : reps) {
    if (r.out.digest != o.digest || r.run_packets != reps.front().run_packets) {
      ++t.failed;
      t.correct = false;
      std::printf("CHECK FAILED: repetitions disagree (digest %016llx vs %016llx)\n",
                  static_cast<unsigned long long>(r.out.digest),
                  static_cast<unsigned long long>(o.digest));
      break;
    }
  }
  ++t.attempted;  // the determinism check

  std::vector<double> setup, run;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    setup.push_back(r.setup_s);
    run.push_back(r.run_s);
  }
  const double run_s = median(run);
  const auto d50 = percentile(o.deploy_ms, 0.50);
  const auto d99 = percentile(o.deploy_ms, 0.99);
  const auto f50 = percentile(o.fetch_ms, 0.50);
  const auto f99 = percentile(o.fetch_ms, 0.99);
  const double goodput =
      o.fetch_busy_s > 0 ? static_cast<double>(o.fetch_bytes) * 8 / 1e6 / o.fetch_busy_s : 0;

  std::printf("workload %s seed %llu: %zu repetitions (1 warm-up)\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), reps.size());
  std::printf("outcome_digest %016llx\n", static_cast<unsigned long long>(o.digest));
  std::printf("sessions %llu (failed %llu, reached active %llu), fetches %llu "
              "(failed %llu), checks %llu (failed %llu), ops_failed_frac %.6f\n",
              static_cast<unsigned long long>(o.sessions),
              static_cast<unsigned long long>(o.sessions_failed),
              static_cast<unsigned long long>(o.sessions_active),
              static_cast<unsigned long long>(o.fetches),
              static_cast<unsigned long long>(o.fetches_failed),
              static_cast<unsigned long long>(o.checks),
              static_cast<unsigned long long>(o.checks_failed),
              static_cast<double>(t.failed) / static_cast<double>(t.attempted));
  std::printf("deploy_ms p50=%.3f (n=%zu) p%.4g=%.3f\n", d50.first,
              o.deploy_ms.size(), d99.second * 100, d99.first);
  std::printf("fetch_ms p50=%.3f (n=%zu) p%.4g=%.3f\n", f50.first,
              o.fetch_ms.size(), f99.second * 100, f99.first);
  std::printf("setup_s runs:");
  for (double s : setup) std::printf(" %.4f", s);
  std::printf("\nrun_wall_s runs:");
  for (double s : run) std::printf(" %.4f", s);
  std::printf("\n");

  Json j;
  j.metric("setup_s", median(setup), "s");
  j.metric("run_wall_s", run_s, "s");
  j.metric("pkts_per_wall_s", static_cast<double>(reps.front().run_packets) / run_s, "pkt/s");
  j.metric("deploys_per_wall_s", static_cast<double>(o.sessions_active) / run_s, "1/s");
  j.metric("peak_rss_mb", peak_rss_mb(), "MB");
  j.metric("deploy_ms_p50", d50.first, "sim_ms");
  j.metric("deploy_ms_p99", d99.first, "sim_ms");
  j.metric("fetch_ms_p50", f50.first, "sim_ms");
  j.metric("fetch_ms_p99", f99.first, "sim_ms");
  j.metric("goodput_mbps", goodput, "sim_Mbit/s");
  print_result(t, j);
  return 0;
}

int traced(const Args& a) {
  const auto origin = Clock::now();
  WallTrace trace(origin);
  const Rep base = run_once(a, trace);

  reset_telemetry();
  auto w = make(a);
  const auto t0 = Clock::now();
  w->setup();
  const auto t1 = Clock::now();
  trace.add("traced.setup", "bench", t0, t1);
  Capture cap;
  Peaks peaks;
  w->arm_trace(cap, peaks);
  Simulator& sim = w->net().sim();
  const auto snap0 = telemetry::MetricsRegistry::global().snapshot();
  const std::uint64_t spans0 = telemetry::SpanRecorder::global().total_recorded();
  const std::uint64_t delivered0 = links_delivered(w->net());
  sim.reset_profile();
  sim.enable_profiling(true);
  const auto t2 = Clock::now();
  w->run();
  const auto t3 = Clock::now();
  sim.enable_profiling(false);
  trace.add("traced.run", "bench", t2, t3);
  const SimProfile prof = sim.profile();
  const double run_s = std::chrono::duration<double>(t3 - t2).count();
  Outcome o = w->collect();
  const auto snap = telemetry::MetricsRegistry::global().snapshot();
  const auto delta = [&](const char* name) {
    return static_cast<double>(snap.counter_total(name) - snap0.counter_total(name));
  };
  const TcpTotals tcp = w->tcp_totals();
  cap.spans_recorded = telemetry::SpanRecorder::global().total_recorded() - spans0;
  const double evicted_open =
      static_cast<double>(telemetry::SpanRecorder::global().evicted_open());
  const Replay rp = replay_all(cap, trace);  // before w goes: cap.store
  w.reset();

  Totals t = account(o);
  if (o.digest != base.out.digest) {
    ++t.failed;
    t.correct = false;
    std::printf("CHECK FAILED: tracing changed the simulated outcome\n");
  }
  ++t.attempted;
  std::printf("outcome_digest %016llx\n", static_cast<unsigned long long>(o.digest));

  Json j;
  // util: the simulator kernel. The peak poller's own events are excluded.
  const double events =
      static_cast<double>(prof.total_events()) - static_cast<double>(peaks.polls);
  j.metric("util.sim.events", events, "count");
  j.metric("util.sim.ns_per_event", events > 0 ? run_s * 1e9 / events : 0, "ns");
  const std::pair<SimCategory, const char*> cats[] = {
      {SimCategory::kLink, "link"},   {SimCategory::kSwitch, "switch"},
      {SimCategory::kMbox, "mbox"},   {SimCategory::kPvnControl, "pvn_control"},
      {SimCategory::kProto, "proto"}, {SimCategory::kWorkload, "workload"}};
  for (const auto& [cat, name] : cats) {
    j.metric(std::string("util.sim.") + name + ".wall_s",
             static_cast<double>(prof[cat].wall_ns) / 1e9, "s");
    j.metric(std::string("util.sim.") + name + ".events",
             static_cast<double>(prof[cat].events), "count");
  }
  // netsim
  const double delivered = static_cast<double>(o.link_delivered - delivered0);
  j.metric("netsim.link.delivered_packets", delivered, "count");
  j.metric("netsim.link.dropped_packets", delta("netsim.link.dropped_packets"), "count");
  j.metric("netsim.link.queued_bytes_max", static_cast<double>(peaks.queued_bytes), "bytes");
  const double link_events = static_cast<double>(prof[SimCategory::kLink].events);
  j.metric("netsim.link.packets_per_event", link_events > 0 ? delivered / link_events : 0,
           "pkt/event");
  // sdn
  j.metric("sdn.flow_table.add_us", rp.add_us, "us");
  j.metric("sdn.flow_table.lookup_ns", rp.lookup_ns, "ns");
  j.metric("sdn.flow_table.remove_us", rp.remove_us, "us");
  j.metric("sdn.flow_table.rules_max", static_cast<double>(peaks.rules), "count");
  const double hits = delta("sdn.flow_table.hits");
  const double misses = delta("sdn.flow_table.misses");
  j.metric("sdn.flow_table.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  j.metric("sdn.switch.packets_in", delta("sdn.switch.packets_in"), "count");
  j.metric("sdn.switch.diverted_mbox", delta("sdn.switch.diverted_mbox"), "count");
  // mbox
  j.metric("mbox.chain.ns_per_packet", rp.chain_ns_per_packet, "ns");
  j.metric("mbox.chain.packets", delta("mbox.chain.packets"), "count");
  j.metric("mbox.chain.findings", delta("mbox.chain.findings"), "count");
  j.metric("mbox.host.instantiations", delta("mbox.host.instantiations"), "count");
  j.metric("mbox.host.memory_peak_mb", static_cast<double>(peaks.mbox_memory) / (1 << 20), "MB");
  // pvn
  j.metric("pvn.compile_us", rp.compile_us, "us");
  j.metric("pvn.codec.decode_ns", rp.decode_ns, "ns");
  j.metric("pvn.server.deploys", delta("pvn.server.deploys"), "count");
  j.metric("pvn.server.nacks", delta("pvn.server.nacks"), "count");
  j.metric("pvn.server.deploys_shed", delta("pvn.server.deploys_shed"), "count");
  j.metric("pvn.server.leases_renewed", delta("pvn.server.leases_renewed"), "count");
  j.metric("pvn.server.leases_expired", delta("pvn.server.leases_expired"), "count");
  j.metric("pvn.server.pending_deploys_max", static_cast<double>(peaks.pending_deploys), "count");
  j.metric("pvn.client.deploy_retransmissions", delta("pvn.client.deploy_retransmissions"), "count");
  j.metric("pvn.client.discovery_rounds", delta("pvn.client.discovery_rounds"), "count");
  const double ok = delta("pvn.client.deploys_ok");
  const double bad = delta("pvn.client.deploys_failed");
  j.metric("pvn.deploy_useful_ratio", ok + bad > 0 ? ok / (ok + bad) : 0, "ratio");
  // proto
  j.metric("proto.tcp.retransmit_ratio",
           tcp.segments_sent > 0 ? static_cast<double>(tcp.retransmits) /
                                       static_cast<double>(tcp.segments_sent)
                                 : 0,
           "ratio");
  j.metric("proto.tcp.timeouts", static_cast<double>(tcp.timeouts), "count");
  // telemetry
  j.metric("telemetry.spans.recorded", static_cast<double>(cap.spans_recorded), "count");
  j.metric("telemetry.spans.evicted_open", evicted_open, "count");
  // Where the traced run's wall time went, by layer: the replayed cost of
  // each layer's entry points, and the kernel's own share (wall time not
  // inside any event callback).
  j.metric("attrib.sdn.wall_s", rp.sdn_s, "s");
  j.metric("attrib.pvn.wall_s", rp.pvn_s, "s");
  j.metric("attrib.mbox.wall_s", rp.mbox_s, "s");
  j.metric("attrib.telemetry.wall_s", rp.telemetry_s, "s");
  j.metric("attrib.util.wall_s", std::max(0.0, run_s - static_cast<double>(prof.total_wall_ns()) / 1e9), "s");
  j.metric("trace.overhead_frac", run_s / base.run_s - 1, "ratio");
  j.metric("ops_failed_frac", static_cast<double>(t.failed) / static_cast<double>(t.attempted), "ratio");

  std::filesystem::create_directories(a.out);
  const std::string path = a.out + "/trace_" + a.workload + "_seed" +
                           std::to_string(a.seed) + ".json";
  trace.write_chrome(path);
  std::printf("chrome trace: %s\n", path.c_str());
  print_result(t, j);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::parse_args(argc, argv, a) || !perfbench::make(a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <deploy_storm|chain_traffic|"
                 "churn_mixed> --seed <n> --seconds <s> --trace <0|1> "
                 "[--scale toy] [--plant truncated_fetch] [--out <dir>]\n");
    return 2;
  }
  return a.trace ? perfbench::traced(a) : perfbench::timed(a);
}
