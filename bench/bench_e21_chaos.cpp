// E21 — Deterministic chaos campaigns: randomized fault schedules must not
// break system-wide invariants, and every failure must be replayable.
//
// Three gates, each a hard exit-code failure:
//   1. Campaign: a >=25-seed campaign of planner-drawn fault schedules
//      (link flaps, loss bursts, partitions, node/mbox crashes, rogue-server
//      modes, Byzantine standbys, handover storms) over the population
//      testbed reports ZERO invariant violations. If a seed fails, the
//      failing schedule is shrunk and written to chaos_repro.bin so the
//      exact repro ships with the failure.
//   2. Determinism: rerunning the identical campaign produces bit-identical
//      per-seed run digests (fault timeline + violations + final state).
//      Every seed's digest and every planted class's replay digest are
//      printed and written to the JSON, so runs compare across commits.
//   3. Planted bugs: for every planted violation class, detect -> shrink ->
//      replay must produce a <=3-event deterministic repro that still fails
//      with the same invariant class after a repro-file round trip.
//
// Prints BENCH_chaos.json (override with PVN_BENCH_JSON). Quick mode
// (PVN_BENCH_QUICK=1 or --quick) shrinks the campaign; all gates still run.
// `--replay=<file>` replays a saved repro instead: exit 1 if it still
// violates (the repro reproduces), 0 if the run is clean (bug fixed).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "chaos/campaign.h"
#include "chaos/planner.h"
#include "chaos/schedule.h"
#include "chaos/shrinker.h"
#include "common.h"

using namespace pvn;

namespace {

std::string json_bool(bool b) { return b ? "true" : "false"; }

struct PlantedGate {
  PlantedBug bug;
  std::string invariant;       // class the auditor must flag it as
  bool detected = false;
  std::size_t shrunk_events = 0;
  int oracle_runs = 0;
  bool converged = false;
  bool replay_same_class = false;  // repro-file round trip still fails
  bool replay_deterministic = false;
  std::string replay_digest;  // hex digest of the reloaded repro's replay

  bool ok() const {
    return detected && converged && shrunk_events >= 1 && shrunk_events <= 3 &&
           replay_same_class && replay_deterministic;
  }
};

// Plant one bug into a benign planner-drawn schedule, then run the full
// detect -> shrink -> save -> reload -> replay loop an operator would.
PlantedGate run_planted(PlantedBug bug, const ChaosPlannerConfig& cfg,
                        const std::string& invariant) {
  PlantedGate g;
  g.bug = bug;
  g.invariant = invariant;

  ChaosSchedule schedule = ChaosPlanner::plan(99, cfg);
  ChaosEvent plant;
  plant.at = seconds(5);
  plant.kind = ChaosEventKind::kPlantedBug;
  plant.arg = static_cast<std::uint32_t>(bug);
  schedule.events.push_back(plant);

  const ChaosRunResult run = run_schedule(schedule);
  for (const InvariantViolation& v : run.violations) {
    if (v.invariant == invariant) g.detected = true;
  }
  if (!g.detected) return g;

  const ShrinkResult shrunk = shrink(schedule);
  g.shrunk_events = shrunk.schedule.events.size();
  g.oracle_runs = shrunk.oracle_runs;
  g.converged = shrunk.converged;

  const std::string path =
      "chaos_repro_demo_" + std::string(to_string(bug)) + ".bin";
  if (!save_repro(shrunk.schedule, path)) return g;
  const auto reloaded = load_repro(path);
  std::remove(path.c_str());
  if (!reloaded.has_value() || !(*reloaded == shrunk.schedule)) return g;

  const ChaosRunResult replay1 = run_schedule(*reloaded);
  const ChaosRunResult replay2 = run_schedule(*reloaded);
  for (const InvariantViolation& v : replay1.violations) {
    if (v.invariant == shrunk.invariant) g.replay_same_class = true;
  }
  g.replay_deterministic = replay1.digest == replay2.digest;
  g.replay_digest = replay1.digest.hex();
  return g;
}

int replay_mode(const std::string& path) {
  const auto schedule = load_repro(path);
  if (!schedule.has_value()) {
    std::fprintf(stderr, "failed to load repro file %s\n", path.c_str());
    return 2;
  }
  std::printf("replaying %s: seed=%llu, %zu events, horizon=%s\n",
              path.c_str(),
              static_cast<unsigned long long>(schedule->seed),
              schedule->events.size(),
              format_duration(schedule->horizon()).c_str());
  for (const ChaosEvent& e : schedule->events) {
    std::printf("  t=%-12s %-18s target=%u dur=%s loss=%.2f arg=%u\n",
                format_duration(e.at).c_str(), to_string(e.kind),
                e.target, format_duration(e.duration).c_str(), e.loss, e.arg);
  }
  const ChaosRunResult run = run_schedule(*schedule);
  std::printf("digest: %s\n", run.digest.hex().c_str());
  if (run.violations.empty()) {
    std::printf("run is CLEAN — the repro no longer reproduces\n");
    return 0;
  }
  for (const InvariantViolation& v : run.violations) {
    std::printf("VIOLATION [%s] at %s: %s\n", v.invariant.c_str(),
                format_duration(v.at).c_str(), v.detail.c_str());
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  bench::TelemetryScope telemetry(argc, argv);
  bool quick = false;
  const char* env_quick = std::getenv("PVN_BENCH_QUICK");
  if (env_quick != nullptr && std::strcmp(env_quick, "0") != 0) quick = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    constexpr const char kReplay[] = "--replay=";
    if (std::strncmp(argv[i], kReplay, sizeof(kReplay) - 1) == 0) {
      return replay_mode(argv[i] + (sizeof(kReplay) - 1));
    }
  }

  bench::title("E21 — deterministic chaos campaigns",
               "randomized fault schedules keep every system-wide invariant; "
               "any failure shrinks to a minimal deterministic repro");

  // The campaign scenario. Quick mode trims the fleet and the horizon but
  // keeps every fault kind in play.
  ChaosPlannerConfig cfg;
  if (quick) {
    cfg.scenario.clients = 4;
    cfg.scenario.lease = seconds(10);
    cfg.scenario.fault_window = seconds(20);
    cfg.scenario.settle = seconds(25);
    cfg.min_events = 4;
    cfg.max_events = 8;
  }
  const int seeds = quick ? 10 : 25;
  const std::uint64_t base_seed = 1;

  // Gate 1: the campaign itself.
  const ChaosCampaignResult campaign = run_campaign(base_seed, seeds, cfg);
  std::size_t events_total = 0;
  for (const auto& r : campaign.runs) events_total += r.events;
  const bool campaign_clean = campaign.failed_seeds == 0;

  bench::header({"seeds", "schedule events", "failed seeds", "violations"});
  bench::row(seeds, static_cast<std::uint64_t>(events_total),
             campaign.failed_seeds, campaign.violations_total);
  std::string repro_path;
  if (!campaign_clean) {
    for (const auto& r : campaign.runs) {
      if (r.clean) continue;
      std::printf("  seed %llu FAILED: %s\n",
                  static_cast<unsigned long long>(r.seed),
                  r.first_violation.c_str());
    }
    // Ship the repro: shrink the first failing seed's schedule and save it.
    for (const auto& r : campaign.runs) {
      if (r.clean) continue;
      const ChaosSchedule failing = ChaosPlanner::plan(r.seed, cfg);
      const ShrinkResult shrunk = shrink(failing);
      const char* out = std::getenv("PVN_CHAOS_REPRO");
      repro_path = out != nullptr ? out : "chaos_repro.bin";
      if (save_repro(shrunk.schedule, repro_path)) {
        std::printf("  shrunk repro (%zu events, class %s) -> %s\n",
                    shrunk.schedule.events.size(), shrunk.invariant.c_str(),
                    repro_path.c_str());
      }
      break;
    }
  }

  // Gate 2: bit-identical rerun.
  const ChaosCampaignResult rerun = run_campaign(base_seed, seeds, cfg);
  bool deterministic = rerun.runs.size() == campaign.runs.size();
  for (std::size_t i = 0; deterministic && i < campaign.runs.size(); ++i) {
    deterministic = campaign.runs[i].digest == rerun.runs[i].digest;
  }
  std::printf("\n");
  bench::header({"seed", "run digest"});
  for (const auto& r : campaign.runs) {
    bench::row(static_cast<std::uint64_t>(r.seed), r.digest.hex());
  }
  std::printf("rerun digests: %s\n",
              deterministic ? "bit-identical" : "MISMATCH");

  // Gate 3: every planted violation class, end to end.
  struct Case {
    PlantedBug bug;
    const char* invariant;
  };
  const std::vector<Case> cases = {
      {PlantedBug::kConservation, "conservation"},
      {PlantedBug::kStuckSession, "stuck-session"},
      {PlantedBug::kLeaseLeak, "stale-lease"},
      {PlantedBug::kMemoryLeak, "memory-leak"},
      {PlantedBug::kReputation, "reputation"},
      {PlantedBug::kReplyCache, "reply-cache"},
  };
  // Planted runs always use the small scenario: the shrink oracle replays
  // the schedule dozens of times.
  ChaosPlannerConfig planted_cfg = cfg;
  planted_cfg.scenario.clients = 4;
  planted_cfg.scenario.lease = seconds(10);
  planted_cfg.scenario.fault_window = seconds(20);
  planted_cfg.scenario.settle = seconds(25);
  planted_cfg.min_events = 4;
  planted_cfg.max_events = 4;

  std::vector<PlantedGate> planted;
  bool planted_ok = true;
  std::printf("\n");
  bench::header({"planted class", "detected", "shrunk to", "oracle runs",
                 "replay", "replay digest"});
  for (const Case& c : cases) {
    PlantedGate g = run_planted(c.bug, planted_cfg, c.invariant);
    bench::row(to_string(c.bug), g.detected ? "yes" : "NO",
               static_cast<std::uint64_t>(g.shrunk_events), g.oracle_runs,
               g.replay_same_class && g.replay_deterministic ? "ok" : "FAIL",
               g.replay_digest.empty() ? "-" : g.replay_digest);
    planted_ok = planted_ok && g.ok();
    planted.push_back(g);
  }

  if (telemetry.enabled()) telemetry::export_telemetry(telemetry.dir());

  const char* json_path = std::getenv("PVN_BENCH_JSON");
  if (json_path == nullptr) json_path = "BENCH_chaos.json";
  FILE* f = std::fopen(json_path, "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"e21_chaos\",\n");
    std::fprintf(f, "  \"quick\": %s,\n", json_bool(quick).c_str());
    std::fprintf(f, "  \"seeds\": %d,\n", seeds);
    std::fprintf(f, "  \"schedule_events_total\": %zu,\n", events_total);
    std::fprintf(f, "  \"failed_seeds\": %d,\n", campaign.failed_seeds);
    std::fprintf(f, "  \"violations_total\": %d,\n",
                 campaign.violations_total);
    std::fprintf(f, "  \"campaign_clean\": %s,\n",
                 json_bool(campaign_clean).c_str());
    std::fprintf(f, "  \"rerun_bit_identical\": %s,\n",
                 json_bool(deterministic).c_str());
    if (!repro_path.empty()) {
      std::fprintf(f, "  \"repro_file\": \"%s\",\n", repro_path.c_str());
    }
    std::fprintf(f, "  \"seed_digests\": {\n");
    for (std::size_t i = 0; i < campaign.runs.size(); ++i) {
      const auto& r = campaign.runs[i];
      std::fprintf(f, "    \"%llu\": \"%s\"%s\n",
                   static_cast<unsigned long long>(r.seed),
                   r.digest.hex().c_str(),
                   i + 1 < campaign.runs.size() ? "," : "");
    }
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"planted\": {\n");
    for (std::size_t i = 0; i < planted.size(); ++i) {
      const PlantedGate& g = planted[i];
      std::fprintf(f,
                   "    \"%s\": {\"detected\": %s, \"shrunk_events\": %zu, "
                   "\"oracle_runs\": %d, \"replay_ok\": %s, "
                   "\"replay_digest\": \"%s\"}%s\n",
                   to_string(g.bug), json_bool(g.detected).c_str(),
                   g.shrunk_events, g.oracle_runs,
                   json_bool(g.replay_same_class && g.replay_deterministic)
                       .c_str(),
                   g.replay_digest.c_str(), i + 1 < planted.size() ? "," : "");
    }
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"planted_ok\": %s\n", json_bool(planted_ok).c_str());
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path);
  }

  const bool pass = campaign_clean && deterministic && planted_ok;
  std::printf("gates: campaign %s, determinism %s, planted %s -> %s\n",
              campaign_clean ? "pass" : "FAIL",
              deterministic ? "pass" : "FAIL", planted_ok ? "pass" : "FAIL",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
