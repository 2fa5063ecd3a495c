// E20 — Operations-plane bench: the admin surface must observe without
// perturbing, and must observe *consistently*.
//
// Three gates, each a hard exit-code failure:
//   1. Flight-recorder overhead: the per-link packet sampler attached to
//      the dataplane workload (bench/dataplane_scenario.h) must cost < 5%
//      in events/sec (warm-up + median of paired reps — e17's recorded
//      5.04% flake is exactly what the median guards against), and must be
//      passive (identical delivery digest with and without it).
//   2. Snapshot consistency: an OpsEndpoint metrics snapshot cut at a
//      simulator time barrier must report byte-identical per-link deltas
//      on two runs of the same seeded topology, at the same simulated
//      barrier instant.
//   3. Reconfiguration verbs: every OpsVerb round-trips through the in-sim
//      protocol against the full testbed, is idempotent under admin
//      retransmission, and is visible in a subsequent snapshot.
//
// Prints BENCH_ops.json (override with PVN_BENCH_JSON). Quick mode
// (PVN_BENCH_QUICK=1 or --quick) shrinks the workload; all gates still run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "audit/reputation.h"
#include "common.h"
#include "dataplane_scenario.h"
#include "ops/client.h"
#include "ops/endpoint.h"
#include "ops/flight_recorder.h"
#include "proto/ops.h"
#include "testbed/testbed.h"

using namespace pvn;
using bench::DataplaneScenario;
using bench::thread_cpu_seconds;

namespace {

std::string json_bool(bool b) { return b ? "true" : "false"; }

// --- gate 1: flight-recorder overhead ----------------------------------------

struct OverheadResult {
  double base_events_per_sec = 0;
  double recorder_events_per_sec = 0;
  double overhead_pct = 0;
  bool passive = false;  // delivery digest unchanged by the recorder
  std::uint64_t samples_captured = 0;
};

struct DataplaneRun {
  double events_per_sec = 0;
  std::uint64_t digest = 0;
  std::uint64_t samples = 0;
};

DataplaneRun run_dataplane(bool with_recorder, int flows, int packets) {
  DataplaneScenario sc(flows, packets, /*with_admin=*/false);
  FlightRecorder rec;  // default config: every 16th packet
  if (with_recorder) rec.attach(sc.net);
  const double t0 = thread_cpu_seconds();
  const std::size_t events = sc.net.sim().run();
  const double t1 = thread_cpu_seconds();
  DataplaneRun r;
  const double wall = t1 - t0;
  r.events_per_sec = wall > 0 ? static_cast<double>(events) / wall : 0.0;
  r.digest = sc.digest();
  r.samples = with_recorder ? rec.samples().size() : 0;
  return r;
}

OverheadResult measure_overhead(bool quick) {
  // The overhead gate always runs the full-size workload: a single run is
  // only ~30 ms, and anything smaller is dominated by wall-clock noise
  // (quick-mode 150-packet runs measured anywhere from -7% to +34% on a
  // loaded machine). `quick` only trims the rep count.
  const int flows = 32;
  const int packets = 1000;
  // Warm-up pass of both variants (first-touch allocation, cache warming),
  // then interleaved paired reps. The gate statistic is the median of the
  // per-pair rate ratios: base and recorder runs of one pair are adjacent
  // in time, so machine-load noise hits both sides of a ratio roughly
  // equally and cancels, where independent per-side medians would not.
  (void)run_dataplane(false, flows, packets);
  (void)run_dataplane(true, flows, packets);
  const int reps = quick ? 5 : 7;
  std::vector<double> base_rates, rec_rates, ratios;
  OverheadResult r;
  for (int i = 0; i < reps; ++i) {
    const DataplaneRun base = run_dataplane(false, flows, packets);
    const DataplaneRun rec = run_dataplane(true, flows, packets);
    base_rates.push_back(base.events_per_sec);
    rec_rates.push_back(rec.events_per_sec);
    if (base.events_per_sec > 0) {
      ratios.push_back(rec.events_per_sec / base.events_per_sec);
    }
    r.passive = (i == 0) ? base.digest == rec.digest
                         : (r.passive && base.digest == rec.digest);
    r.samples_captured = rec.samples;
  }
  r.base_events_per_sec = bench::median(base_rates);
  r.recorder_events_per_sec = bench::median(rec_rates);
  r.overhead_pct =
      ratios.empty() ? 0.0 : (1.0 - bench::median(ratios)) * 100.0;
  return r;
}

// --- gate 2: snapshot consistency ---------------------------------------------

// Per-link metric deltas for one run: (reply samples at the barrier) minus
// (registry values before the run started). The global registry accumulates
// across scenarios in this process, so absolute values differ between two
// runs — the deltas must not.
struct SnapshotRun {
  bool replied = false;
  SimTime barrier_time = 0;
  std::size_t sample_count = 0;
  bool wire_digest_ok = false;  // server digest matches the samples carried
  std::uint64_t delta_digest = 0;
};

SnapshotRun run_snapshot(int flows, int packets) {
  DataplaneScenario sc(flows, packets, /*with_admin=*/true);

  static constexpr const char* kPrefix = "netsim.link.";
  std::map<std::pair<std::string, std::string>, telemetry::MetricSample> base;
  for (const telemetry::MetricSample& s :
       telemetry::MetricsRegistry::global().snapshot().samples) {
    if (s.name.rfind(kPrefix, 0) == 0) base[{s.name, s.instance}] = s;
  }

  std::optional<OpsSnapshotReply> reply;
  sc.net.sim().schedule_at(
      milliseconds(5), SimCategory::kPvnControl, [&sc, &reply] {
        sc.client->request_snapshot(
            kPrefix, [&reply](const OpsSnapshotReply& r) { reply = r; });
      });
  // Drain to completion so the shared global registry's gauges (set
  // semantics, e.g. queued_bytes) read zero again before the next run
  // captures its baseline.
  sc.net.sim().run();

  SnapshotRun out;
  if (!reply.has_value()) return out;
  out.replied = true;
  out.barrier_time = reply->barrier_time;
  out.sample_count = reply->samples.size();
  out.wire_digest_ok = reply->digest == ops_snapshot_digest(reply->samples);

  std::vector<OpsMetricSample> deltas = reply->samples;
  for (OpsMetricSample& s : deltas) {
    const auto it = base.find({s.name, s.instance});
    if (it == base.end()) continue;
    s.counter_value -= it->second.counter_value;
    s.gauge_value -= it->second.gauge_value;
    s.hist_count -= it->second.hist_count;
    s.hist_sum -= it->second.hist_sum;
  }
  out.delta_digest = ops_snapshot_digest(deltas);
  return out;
}

// --- gate 3: reconfiguration verbs against the full testbed ------------------

struct VerbsResult {
  bool deploy_ok = false;
  bool inject_ok = false;
  bool wipe_ok = false;
  bool promote_ok = false;
  bool quarantine_ok = false;
  bool sampling_ok = false;
  bool idempotent = false;   // retransmit re-replies without re-applying
  bool visible = false;      // applied count shows up in a later snapshot
  std::uint64_t applied = 0;
  std::uint64_t duplicates = 0;

  bool all() const {
    return deploy_ok && inject_ok && wipe_ok && promote_ok && quarantine_ok &&
           sampling_ok && idempotent && visible;
  }
};

VerbsResult run_verbs() {
  TestbedConfig cfg;
  cfg.standby = true;
  cfg.enable_ops = true;
  Testbed tb(cfg);
  VerbsResult r;
  r.deploy_ok = tb.deploy(tb.standard_pvnc("alice-phone")).ok;

  HostScoreboard scoreboard;
  tb.ops->set_scoreboard(&scoreboard);
  std::size_t wiped_calls = 0;
  tb.ops->register_cache("dns-cache", [&wiped_calls] {
    ++wiped_calls;
    return std::size_t{3};
  });

  const std::uint64_t applied_before = tb.ops->reconfigs_applied();

  OpsClient admin(*tb.client, tb.addrs.control);
  auto drive = [&tb](SimDuration d) {
    tb.net.sim().run_until(tb.net.sim().now() + d);
  };
  auto roundtrip = [&](OpsReconfigRequest rq,
                       std::optional<OpsReconfigReply>& out) {
    const std::uint32_t seq = admin.send_reconfig(
        std::move(rq), [&out](const OpsReconfigReply& rep) { out = rep; });
    drive(milliseconds(200));
    return seq;
  };

  std::optional<OpsReconfigReply> rep;
  OpsReconfigRequest rq;
  rq.verb = OpsVerb::kInjectRule;
  rq.switch_name = Testbed::kSwitchName;
  rq.table = 0;
  rq.rule.priority = 5000;
  rq.rule.cookie = "ops:drop-tracker";
  rq.rule.match.dst = Prefix{tb.addrs.tracker, 32};
  const Action drop = ActDrop{};  // named: avoids a GCC12 variant-move warning
  rq.rule.actions.push_back(drop);
  roundtrip(rq, rep);
  bool rule_installed = false;
  for (const FlowRule& rule : tb.access_sw->table(0).rules()) {
    if (rule.cookie == "ops:drop-tracker") rule_installed = true;
  }
  r.inject_ok = rep.has_value() && rep->ok && rep->applied && rule_installed;

  rep.reset();
  rq = {};
  rq.verb = OpsVerb::kWipeCache;
  rq.cache_id = "dns-cache";
  const std::uint32_t wipe_seq = roundtrip(rq, rep);
  r.wipe_ok = rep.has_value() && rep->ok && rep->applied && wiped_calls == 1;

  rep.reset();
  rq = {};
  rq.verb = OpsVerb::kPromoteStandby;
  rq.device_id = "alice-phone";
  roundtrip(rq, rep);
  r.promote_ok = rep.has_value() && rep->ok && rep->applied &&
                 tb.server->deployment_view("alice-phone").promoted;

  rep.reset();
  rq = {};
  rq.verb = OpsVerb::kQuarantineOverride;
  rq.target_host = tb.addrs.standby.to_string();
  rq.quarantine = 1;
  roundtrip(rq, rep);
  r.quarantine_ok =
      rep.has_value() && rep->ok && rep->applied &&
      scoreboard.quarantined(tb.addrs.standby.to_string(), tb.net.sim().now());

  rep.reset();
  rq = {};
  rq.verb = OpsVerb::kSetSamplingRate;
  rq.sample_interval = 64;
  roundtrip(rq, rep);
  r.sampling_ok = rep.has_value() && rep->ok && rep->applied &&
                  tb.flight_recorder->sample_interval() == 64;

  // Idempotency: a retrying admin re-sends the wipe byte-identically; the
  // endpoint re-serves the cached reply without wiping again.
  rep.reset();
  admin.retransmit(wipe_seq);
  drive(milliseconds(200));
  r.applied = tb.ops->reconfigs_applied() - applied_before;
  r.duplicates = tb.ops->duplicates_suppressed();
  r.idempotent = rep.has_value() && rep->ok && wiped_calls == 1 &&
                 r.duplicates == 1 && r.applied == 5;

  // Visibility: the endpoint's own counters make every applied verb
  // observable through the same snapshot path an operator would use.
  std::optional<OpsSnapshotReply> snap;
  admin.request_snapshot("ops.endpoint.",
                         [&snap](const OpsSnapshotReply& s) { snap = s; });
  drive(milliseconds(200));
  if (snap.has_value()) {
    for (const OpsMetricSample& s : snap->samples) {
      if (s.name == "ops.endpoint.reconfigs_applied" &&
          s.counter_value >= r.applied) {
        r.visible = true;
      }
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::TelemetryScope telemetry(argc, argv);
  bool quick = false;
  const char* env_quick = std::getenv("PVN_BENCH_QUICK");
  if (env_quick != nullptr && std::strcmp(env_quick, "0") != 0) quick = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  bench::title("E20 — operations plane",
               "admin introspection must not perturb the dataplane, and "
               "must report identically on every run");

  // Gate 1: flight-recorder overhead on the dataplane workload.
  const OverheadResult oh = measure_overhead(quick);
  const bool overhead_ok = oh.overhead_pct < 5.0 && oh.passive;
  bench::header({"recorder", "events/s", "overhead %", "passive"});
  bench::row("off", oh.base_events_per_sec, 0.0, "-");
  bench::row("every 16th packet", oh.recorder_events_per_sec, oh.overhead_pct,
             oh.passive ? "yes" : "NO");

  // Gate 2: barrier snapshots of two runs with the same seed agree.
  const int flows = 32;
  const int packets = quick ? 100 : 500;
  const SnapshotRun snap1 = run_snapshot(flows, packets);
  const SnapshotRun snap2 = run_snapshot(flows, packets);
  const bool consistent =
      snap1.replied && snap2.replied &&
      snap1.barrier_time == snap2.barrier_time && snap1.sample_count > 0 &&
      snap1.sample_count == snap2.sample_count && snap1.wire_digest_ok &&
      snap2.wire_digest_ok && snap1.delta_digest == snap2.delta_digest;
  std::printf("\n");
  bench::header({"run", "barrier (us)", "samples", "delta digest"});
  bench::row(1, static_cast<double>(snap1.barrier_time) / 1000.0,
             static_cast<std::uint64_t>(snap1.sample_count),
             snap1.delta_digest);
  bench::row(2, static_cast<double>(snap2.barrier_time) / 1000.0,
             static_cast<std::uint64_t>(snap2.sample_count),
             snap2.delta_digest);
  std::printf("snapshot rerun consistency: %s\n",
              consistent ? "consistent" : "MISMATCH");

  // Gate 3: every reconfiguration verb round-trips against the testbed.
  const VerbsResult verbs = run_verbs();
  std::printf("\n");
  bench::header({"verb", "round-trip"});
  bench::row("inject-rule", verbs.inject_ok ? "ok" : "FAIL");
  bench::row("wipe-cache", verbs.wipe_ok ? "ok" : "FAIL");
  bench::row("promote-standby", verbs.promote_ok ? "ok" : "FAIL");
  bench::row("quarantine-override", verbs.quarantine_ok ? "ok" : "FAIL");
  bench::row("set-sampling-rate", verbs.sampling_ok ? "ok" : "FAIL");
  bench::row("retransmit (idempotent)", verbs.idempotent ? "ok" : "FAIL");
  bench::row("visible in snapshot", verbs.visible ? "ok" : "FAIL");

  if (telemetry.enabled()) telemetry::export_telemetry(telemetry.dir());

  const char* json_path = std::getenv("PVN_BENCH_JSON");
  if (json_path == nullptr) json_path = "BENCH_ops.json";
  FILE* f = std::fopen(json_path, "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"e20_ops\",\n");
    std::fprintf(f, "  \"quick\": %s,\n", json_bool(quick).c_str());
    std::fprintf(f, "  \"events_per_sec_base\": %.0f,\n",
                 oh.base_events_per_sec);
    std::fprintf(f, "  \"events_per_sec_recorder\": %.0f,\n",
                 oh.recorder_events_per_sec);
    std::fprintf(f, "  \"recorder_overhead_pct\": %.3f,\n", oh.overhead_pct);
    std::fprintf(f, "  \"recorder_overhead_within_5pct\": %s,\n",
                 json_bool(oh.overhead_pct < 5.0).c_str());
    std::fprintf(f, "  \"recorder_passive\": %s,\n",
                 json_bool(oh.passive).c_str());
    std::fprintf(f, "  \"recorder_samples\": %llu,\n",
                 static_cast<unsigned long long>(oh.samples_captured));
    std::fprintf(f, "  \"snapshot_barrier_us\": %.3f,\n",
                 static_cast<double>(snap1.barrier_time) / 1000.0);
    std::fprintf(f, "  \"snapshot_samples\": %zu,\n", snap1.sample_count);
    std::fprintf(f, "  \"snapshot_delta_digest\": %llu,\n",
                 static_cast<unsigned long long>(snap1.delta_digest));
    std::fprintf(f, "  \"snapshot_delta_digest_rerun\": %llu,\n",
                 static_cast<unsigned long long>(snap2.delta_digest));
    std::fprintf(f, "  \"snapshot_rerun_consistent\": %s,\n",
                 json_bool(consistent).c_str());
    std::fprintf(f, "  \"verbs\": {\n");
    std::fprintf(f, "    \"inject_rule\": %s,\n",
                 json_bool(verbs.inject_ok).c_str());
    std::fprintf(f, "    \"wipe_cache\": %s,\n",
                 json_bool(verbs.wipe_ok).c_str());
    std::fprintf(f, "    \"promote_standby\": %s,\n",
                 json_bool(verbs.promote_ok).c_str());
    std::fprintf(f, "    \"quarantine_override\": %s,\n",
                 json_bool(verbs.quarantine_ok).c_str());
    std::fprintf(f, "    \"set_sampling_rate\": %s,\n",
                 json_bool(verbs.sampling_ok).c_str());
    std::fprintf(f, "    \"idempotent_under_retransmit\": %s,\n",
                 json_bool(verbs.idempotent).c_str());
    std::fprintf(f, "    \"visible_in_snapshot\": %s\n",
                 json_bool(verbs.visible).c_str());
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"verbs_ok\": %s\n", json_bool(verbs.all()).c_str());
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path);
  }

  const bool pass = overhead_ok && consistent && verbs.all();
  std::printf("gates: overhead %s, consistency %s, verbs %s -> %s\n",
              overhead_ok ? "pass" : "FAIL", consistent ? "pass" : "FAIL",
              verbs.all() ? "pass" : "FAIL", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
