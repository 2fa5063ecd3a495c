// E15 — Dataplane viability microbenchmarks (google-benchmark + JSON).
//
// Claim (paper §3.3): PVN overhead must be "negligible relative to non-PVN
// connections" even with per-subscriber rules and chains. We measure the
// host-CPU cost of the mechanisms the per-packet path exercises: flow-table
// lookup vs table size (two-level hashed index vs the linear-scan baseline),
// middlebox chain traversal vs chain length, simulator event throughput,
// meter conformance, and the codec round-trips on the wire path.
//
// Besides the google-benchmark tables, the binary always emits a
// machine-readable BENCH_dataplane.json summary (override the path with
// PVN_BENCH_JSON) so the perf trajectory is recorded per commit. Quick mode
// (PVN_BENCH_QUICK=1 or --quick) shrinks iteration counts and skips the
// google-benchmark run — that is what the CI perf job uses.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "mbox/host.h"
#include "mbox/inline_modules.h"
#include "sdn/flow_table.h"
#include "sdn/switch.h"
#include "tunnel/esp.h"

using namespace pvn;

namespace {

// --- shared workload builders -------------------------------------------------

Packet make_udp_packet(Network& net, std::uint32_t salt = 0) {
  UdpHeader hdr;
  hdr.src_port = static_cast<Port>(40000 + salt % 1000);
  hdr.dst_port = 80;
  return net.make_packet(Ipv4Addr(10, 0, 0, 2 + (salt % 100)),
                         Ipv4Addr(93, 184, 216, 34), IpProto::kUdp,
                         serialize_udp(hdr, Bytes(1200, 0x5A)));
}

Ipv4Addr subscriber_dst(int i) {
  return Ipv4Addr(172, 16, static_cast<std::uint8_t>((i / 256) % 256),
                  static_cast<std::uint8_t>(i % 256));
}

// Installs `rules` per-subscriber exact-match rules plus a low-priority
// catch-all — the shape a PVN deployment compiles to (one /32 per device).
template <typename Table>
void fill_subscriber_rules(Table& table, int rules) {
  for (int i = 0; i < rules; ++i) {
    FlowRule rule;
    rule.priority = 100;
    rule.match.dst = Prefix{subscriber_dst(i), 32};
    rule.actions.push_back(ActOutput{1});
    table.add(rule);
  }
  FlowRule catchall;
  catchall.priority = 1;
  catchall.actions.push_back(ActOutput{1});
  table.add(catchall);
}

// Packets cycling over installed subscriber addresses (hash-path hits).
std::vector<Packet> subscriber_packets(Network& net, int rules,
                                       std::size_t count = 256) {
  std::vector<Packet> pool;
  pool.reserve(count);
  for (std::size_t p = 0; p < count; ++p) {
    Packet pkt = make_udp_packet(net, static_cast<std::uint32_t>(p));
    pkt.ip.dst = subscriber_dst(static_cast<int>(p * 97 % rules));
    pool.push_back(std::move(pkt));
  }
  return pool;
}

// The pre-index FlowTable: one sorted vector, linear scan per lookup. Kept
// here as the before/after baseline the JSON summary reports against.
class LinearFlowTable {
 public:
  void add(FlowRule rule) {
    const int prio = rule.priority;
    const int spec = rule.match.specificity();
    auto it = rules_.begin();
    for (; it != rules_.end(); ++it) {
      if (it->priority < prio) break;
      if (it->priority == prio && it->match.specificity() < spec) break;
    }
    rules_.insert(it, std::move(rule));
  }

  const FlowRule* lookup(const Packet& pkt, int in_port) const {
    for (const FlowRule& rule : rules_) {
      if (rule.match.matches(pkt, in_port)) {
        ++rule.hit_packets;
        rule.hit_bytes += pkt.size();
        return &rule;
      }
    }
    return nullptr;
  }

 private:
  std::vector<FlowRule> rules_;
};

// --- google-benchmark microbenches --------------------------------------------

void BM_FlowTableLookup(benchmark::State& state) {
  const int rules = static_cast<int>(state.range(0));
  Network net;
  FlowTable table;
  fill_subscriber_rules(table, rules);
  const std::vector<Packet> pool = subscriber_packets(net, rules);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(pool[i++ % pool.size()], 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlowTableLookup)->Arg(1)->Arg(10)->Arg(100)->Arg(1000)->Arg(4096);

void BM_FlowTableLookupLinear(benchmark::State& state) {
  const int rules = static_cast<int>(state.range(0));
  Network net;
  LinearFlowTable table;
  fill_subscriber_rules(table, rules);
  const std::vector<Packet> pool = subscriber_packets(net, rules);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(pool[i++ % pool.size()], 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlowTableLookupLinear)->Arg(1)->Arg(10)->Arg(100)->Arg(1000)->Arg(4096);

void BM_ChainTraversal(benchmark::State& state) {
  const int len = static_cast<int>(state.range(0));
  Simulator sim;
  MboxHost host(sim);
  Chain& chain = host.create_chain("bench");
  std::vector<std::unique_ptr<Middlebox>> modules;
  for (int i = 0; i < len; ++i) {
    modules.push_back(std::make_unique<PiiDetector>(
        std::vector<std::string>{"imei=", "password=", "lat="},
        PiiAction::kMonitor));
    chain.append(modules.back().get());
  }
  Network net;
  std::uint32_t salt = 0;
  for (auto _ : state) {
    SimDuration delay = 0;
    Packet pkt = make_udp_packet(net, salt++);
    benchmark::DoNotOptimize(chain.process(std::move(pkt), 0, delay));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChainTraversal)->Arg(1)->Arg(2)->Arg(4)->Arg(5)->Arg(8);

void BM_SimEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    struct Tick {
      Simulator* sim;
      int* remaining;
      void operator()() const {
        if (--*remaining > 0) sim->schedule_after(1, *this);
      }
    };
    int remaining = 10000;
    for (int i = 0; i < 64; ++i) sim.schedule_after(1, Tick{&sim, &remaining});
    state.ResumeTiming();
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimEventThroughput);

void BM_MeterConformance(benchmark::State& state) {
  Meter meter(Rate::mbps(100), 1 << 20);
  SimTime now = 0;
  for (auto _ : state) {
    now += 100;  // 100 ns between packets
    benchmark::DoNotOptimize(meter.conforms(1200, now));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MeterConformance);

void BM_EspEncapDecap(benchmark::State& state) {
  Network net;
  const Bytes key = to_bytes("bench-key");
  const Packet inner = make_udp_packet(net);
  std::uint32_t seq = 0;
  for (auto _ : state) {
    Packet outer = esp_encap(inner, Ipv4Addr(10, 0, 0, 1),
                             Ipv4Addr(203, 0, 113, 5), key, 1, ++seq);
    benchmark::DoNotOptimize(esp_decap(outer, key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EspEncapDecap);

void BM_TcpHeaderCodec(benchmark::State& state) {
  TcpHeader hdr;
  hdr.src_port = 443;
  hdr.dst_port = 51234;
  hdr.seq = 123456;
  hdr.ack = 654321;
  hdr.flags = kTcpAck;
  hdr.sacks = {{1000, 2000}, {3000, 4000}};
  for (auto _ : state) {
    ByteWriter w;
    hdr.encode(w);
    ByteReader r(w.bytes());
    benchmark::DoNotOptimize(TcpHeader::decode(r));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TcpHeaderCodec);

// --- JSON summary (the BENCH_dataplane.json perf trajectory) -------------------

double seconds_of(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

template <typename Body>
double rate_per_sec(std::size_t iters, Body&& body) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) body(i);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = seconds_of(t1 - t0);
  return secs > 0 ? static_cast<double>(iters) / secs : 0.0;
}

struct FlowTableSample {
  int rules;
  double hashed_per_sec;
  double linear_per_sec;
  double speedup;
};

FlowTableSample measure_flow_table(int rules, bool quick) {
  Network net;
  FlowTable hashed;
  LinearFlowTable linear;
  fill_subscriber_rules(hashed, rules);
  fill_subscriber_rules(linear, rules);
  const std::vector<Packet> pool = subscriber_packets(net, rules);

  const std::size_t hashed_iters = quick ? 20000 : 400000;
  // The linear baseline is O(rules) per lookup; keep total work bounded.
  const std::size_t linear_iters =
      std::max<std::size_t>(quick ? 500 : 2000, (quick ? 400000u : 4000000u) /
                                                    static_cast<unsigned>(rules));

  FlowTableSample s;
  s.rules = rules;
  s.hashed_per_sec = rate_per_sec(hashed_iters, [&](std::size_t i) {
    benchmark::DoNotOptimize(hashed.lookup(pool[i % pool.size()], 0));
  });
  s.linear_per_sec = rate_per_sec(linear_iters, [&](std::size_t i) {
    benchmark::DoNotOptimize(linear.lookup(pool[i % pool.size()], 0));
  });
  s.speedup = s.linear_per_sec > 0 ? s.hashed_per_sec / s.linear_per_sec : 0.0;
  return s;
}

double measure_chain_packets_per_sec(int modules_count, bool quick) {
  Simulator sim;
  MboxHost host(sim);
  Chain& chain = host.create_chain("bench");
  std::vector<std::unique_ptr<Middlebox>> modules;
  for (int i = 0; i < modules_count; ++i) {
    modules.push_back(std::make_unique<PiiDetector>(
        std::vector<std::string>{"imei=", "password=", "lat="},
        PiiAction::kMonitor));
    chain.append(modules.back().get());
  }
  Network net;
  std::vector<Packet> pool;
  for (std::uint32_t p = 0; p < 64; ++p) pool.push_back(make_udp_packet(net, p));
  return rate_per_sec(quick ? 5000 : 100000, [&](std::size_t i) {
    SimDuration delay = 0;
    Packet pkt = pool[i % pool.size()];  // CoW copy: shares the payload
    benchmark::DoNotOptimize(chain.process(std::move(pkt), 0, delay));
  });
}

double measure_sim_events_per_sec(bool quick) {
  Simulator sim;
  struct Tick {
    Simulator* sim;
    long* remaining;
    void operator()() const {
      if (--*remaining > 0) sim->schedule_after(1, *this);
    }
  };
  long remaining = quick ? 100000 : 2000000;
  const long total = remaining;
  for (int i = 0; i < 64; ++i) sim.schedule_after(1, Tick{&sim, &remaining});
  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  return static_cast<double>(total) / seconds_of(t1 - t0);
}

double measure_esp_roundtrips_per_sec(bool quick) {
  Network net;
  const Bytes key = to_bytes("bench-key");
  const Packet inner = make_udp_packet(net);
  return rate_per_sec(quick ? 2000 : 50000, [&](std::size_t i) {
    Packet outer = esp_encap(inner, Ipv4Addr(10, 0, 0, 1),
                             Ipv4Addr(203, 0, 113, 5), key, 1,
                             static_cast<std::uint32_t>(i + 1));
    benchmark::DoNotOptimize(esp_decap(outer, key));
  });
}

void write_json_summary(const char* path, bool quick) {
  const int kSizes[] = {16, 256, 1024, 4096};
  std::vector<FlowTableSample> samples;
  for (const int n : kSizes) samples.push_back(measure_flow_table(n, quick));
  const double chain5 = measure_chain_packets_per_sec(5, quick);
  const double events = measure_sim_events_per_sec(quick);
  const double esp = measure_esp_roundtrips_per_sec(quick);

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"e15_dataplane\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"flow_table\": [\n");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const FlowTableSample& s = samples[i];
    std::fprintf(f,
                 "    {\"rules\": %d, \"hashed_lookups_per_sec\": %.0f, "
                 "\"linear_lookups_per_sec\": %.0f, \"speedup\": %.2f}%s\n",
                 s.rules, s.hashed_per_sec, s.linear_per_sec, s.speedup,
                 i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"chain5_packets_per_sec\": %.0f,\n", chain5);
  std::fprintf(f, "  \"sim_events_per_sec\": %.0f,\n", events);
  std::fprintf(f, "  \"esp_roundtrips_per_sec\": %.0f\n", esp);
  std::fprintf(f, "}\n");
  std::fclose(f);

  std::printf("\n=== E15 dataplane summary (%s) ===\n",
              quick ? "quick" : "full");
  for (const FlowTableSample& s : samples) {
    std::printf("flow_table %5d rules: hashed %12.0f /s   linear %12.0f /s   "
                "speedup %6.2fx\n",
                s.rules, s.hashed_per_sec, s.linear_per_sec, s.speedup);
  }
  std::printf("chain (5 modules):     %12.0f packets/s\n", chain5);
  std::printf("simulator:             %12.0f events/s\n", events);
  std::printf("esp encap+decap:       %12.0f roundtrips/s\n", esp);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  pvn::bench::TelemetryScope telemetry(argc, argv);
  bool quick = false;
  const char* env_quick = std::getenv("PVN_BENCH_QUICK");
  if (env_quick != nullptr && std::strcmp(env_quick, "0") != 0) quick = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  if (!quick) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }

  const char* json_path = std::getenv("PVN_BENCH_JSON");
  write_json_summary(json_path != nullptr ? json_path : "BENCH_dataplane.json",
                     quick);
  return 0;
}
