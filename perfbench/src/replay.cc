// Replay timers: the public entry points of each layer, fed the inputs a
// traced run captured, in the order the run produced them. They run after
// the simulation, so they time the calls alone, without the event loop.
#include "replay.h"

#include "mbox/host.h"
#include "pvn/discovery.h"
#include "telemetry/span.h"

namespace perfbench {

using namespace pvn;

namespace {

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

bool goes_to_table1(const FlowRule& r) {
  for (const Action& a : r.actions) {
    if (const auto* g = std::get_if<ActGotoTable>(&a); g && g->table == 1)
      return true;
  }
  return false;
}

// Decodes one PVN frame down to its typed message; false if malformed.
bool decode_frame(const Bytes& payload) {
  const auto frame = unwrap_frame(payload);
  if (!frame) return false;
  switch (frame->type) {
    case PvnMsgType::kDiscovery: return DiscoveryMessage::decode(frame->body).has_value();
    case PvnMsgType::kOffer: return Offer::decode(frame->body).has_value();
    case PvnMsgType::kDeployRequest: return DeployRequest::decode(frame->body).has_value();
    case PvnMsgType::kDeployAck: return DeployAck::decode(frame->body).has_value();
    case PvnMsgType::kDeployNack: return DeployNack::decode(frame->body).has_value();
    case PvnMsgType::kTeardown: return Teardown::decode(frame->body).has_value();
    case PvnMsgType::kLeaseRenew: return LeaseRenew::decode(frame->body).has_value();
    case PvnMsgType::kLeaseAck: return LeaseAck::decode(frame->body).has_value();
    case PvnMsgType::kStateRequest: return StateRequest::decode(frame->body).has_value();
    case PvnMsgType::kStateTransfer: return StateTransfer::decode(frame->body).has_value();
    case PvnMsgType::kStateAck: return StateAck::decode(frame->body).has_value();
    default: return true;  // bodiless frames (teardown ack)
  }
}

}  // namespace

Replay replay_all(const Capture& cap, WallTrace& trace) {
  Replay r;

  // --- sdn: FlowTable add / lookup / remove_by_cookie, in run order ------
  {
    const auto t_start = Clock::now();
    FlowTable tables[2];
    for (const auto& [t, rule] : cap.infra) tables[t].add(rule);
    double add_ns = 0, lookup_ns = 0, remove_ns = 0;
    std::size_t i = 0;
    const std::size_t n = cap.flow_ops.size();
    while (i < n) {
      const ReplayOp& op = cap.flow_ops[i];
      if (op.kind == ReplayOp::kLookup) {
        // Time a run of consecutive lookups as one batch (two clock reads).
        const auto t0 = Clock::now();
        std::size_t j = i;
        for (; j < n && cap.flow_ops[j].kind == ReplayOp::kLookup; ++j) {
          const ReplayOp& l = cap.flow_ops[j];
          const FlowRule* hit = tables[0].lookup(l.pkt, l.in_port);
          ++r.lookups;
          if (hit != nullptr && goes_to_table1(*hit)) {
            tables[1].lookup(l.pkt, l.in_port);
            ++r.lookups;
          }
        }
        lookup_ns += ns_between(t0, Clock::now());
        i = j;
        continue;
      }
      const auto t0 = Clock::now();
      if (op.kind == ReplayOp::kAdd) {
        tables[op.table].add(op.rule);
        add_ns += ns_between(t0, Clock::now());
        ++r.adds;
      } else {
        tables[0].remove_by_cookie(op.cookie);
        tables[1].remove_by_cookie(op.cookie);
        remove_ns += ns_between(t0, Clock::now());
        ++r.removes;
      }
      ++i;
    }
    r.add_us = r.adds ? add_ns / 1e3 / static_cast<double>(r.adds) : 0;
    r.remove_us = r.removes ? remove_ns / 1e3 / static_cast<double>(r.removes) : 0;
    r.lookup_ns = r.lookups ? lookup_ns / static_cast<double>(r.lookups) : 0;
    r.sdn_s = (add_ns + lookup_ns + remove_ns) / 1e9;
    trace.add("replay.sdn.flow_table", "sdn", t_start, Clock::now());
  }

  // --- mbox: Chain::process over the packets that entered a chain --------
  if (cap.store != nullptr && !cap.chain_pkts.empty()) {
    std::vector<std::unique_ptr<Middlebox>> modules;
    Chain chain("replay-chain", MboxHostConfig{}.per_packet_delay);
    for (const PvncModule& m : cap.chain_pvnc.chain) {
      auto mb = cap.store->make(m.store_name, m.params);
      if (mb == nullptr) continue;
      chain.append(mb.get());
      modules.push_back(std::move(mb));
    }
    const auto t0 = Clock::now();
    for (const Packet& pkt : cap.chain_pkts) {
      SimDuration delay = 0;
      chain.process(bare_copy(pkt), 0, delay);
    }
    const auto t1 = Clock::now();
    r.chain_packets = cap.chain_pkts.size();
    r.mbox_s = ns_between(t0, t1) / 1e9;
    r.chain_ns_per_packet = ns_between(t0, t1) / static_cast<double>(r.chain_packets);
    trace.add("replay.mbox.chain_process", "mbox", t0, t1);
  }

  // --- pvn: compile_pvnc per deployment, frame decoders per frame -----------
  if (!cap.compiles.empty()) {
    const auto t0 = Clock::now();
    for (const auto& [pvnc, ctx] : cap.compiles) {
      const CompiledPvnc c = compile_pvnc(pvnc, ctx);
      r.compiled_rules += c.rules.size();
    }
    const auto t1 = Clock::now();
    r.compile_us = ns_between(t0, t1) / 1e3 / static_cast<double>(cap.compiles.size());
    r.pvn_s += ns_between(t0, t1) / 1e9;
    trace.add("replay.pvn.compile_pvnc", "pvn", t0, t1);
  }
  if (!cap.control_frames.empty()) {
    const auto t0 = Clock::now();
    for (const Bytes& frame : cap.control_frames) {
      if (!decode_frame(frame)) ++r.bad_frames;
    }
    const auto t1 = Clock::now();
    r.decode_ns = ns_between(t0, t1) / static_cast<double>(cap.control_frames.size());
    r.pvn_s += ns_between(t0, t1) / 1e9;
    trace.add("replay.pvn.decode_frames", "pvn", t0, t1);
  }

  // --- telemetry: the run's span pattern on a recorder of the same size ----
  // Each session holds one lease span open for the rest of the run; the
  // other recorded spans open and close in between, spread evenly.
  if (cap.sessions > 0 && cap.spans_recorded > 0) {
    telemetry::SpanRecorder rec(telemetry::SpanRecorder::global().capacity());
    const std::uint64_t per_session =
        cap.spans_recorded / cap.sessions > 0 ? cap.spans_recorded / cap.sessions - 1 : 0;
    std::vector<telemetry::Span> leases;
    leases.reserve(cap.sessions);
    const auto t0 = Clock::now();
    for (std::uint64_t s = 0; s < cap.sessions; ++s) {
      const std::string session = "dev-" + std::to_string(s);
      for (std::uint64_t k = 0; k < per_session; ++k) {
        telemetry::Span span = rec.start("phase", "pvn", session);
      }
      leases.push_back(rec.start("lease", "pvn", session));
    }
    leases.clear();
    const auto t1 = Clock::now();
    r.telemetry_s = ns_between(t0, t1) / 1e9;
    trace.add("replay.telemetry.spans", "telemetry", t0, t1);
  }
  return r;
}

}  // namespace perfbench
