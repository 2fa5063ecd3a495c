// The unit of transmission in the simulator.
//
// A Packet carries an IPv4-lite header plus an opaque serialized L4 payload
// (TCP segment, UDP datagram, or ESP tunnel frame — see src/proto and
// src/tunnel for the codecs). The payload is a copy-on-write SharedBytes:
// copying a Packet at dataplane fan-out points (links, taps, switch
// pipelines, middlebox chains, retransmission buffers) shares the buffer and
// only an actual in-place mutation clones it. Simulation-only
// instrumentation (creation time, traversed-node trace) rides along
// out-of-band; it is *not* visible to protocol logic and exists so tests and
// the auditor benches can compare detector output against ground truth.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netsim/addr.h"
#include "netsim/names.h"
#include "util/bytes.h"
#include "util/time.h"

namespace pvn {

enum class IpProto : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
  kEsp = 50,
};

const char* to_string(IpProto proto);

struct IpHeader {
  Ipv4Addr src;
  Ipv4Addr dst;
  IpProto proto = IpProto::kUdp;
  std::uint8_t ttl = 64;
  std::uint8_t tos = 0;  // DSCP-style class; meters/classifiers may set it

  static constexpr std::size_t kWireSize = 20;

  void encode(ByteWriter& w) const;
  static IpHeader decode(ByteReader& r);
  bool operator==(const IpHeader&) const = default;
};

// Ground-truth record of the nodes a packet traversed. Hops are interned
// 32-bit ids against the owning Network's NameTable; the strings themselves
// are materialized only on demand (strings()), so the per-hop cost on the
// forwarding path is a single integer append.
struct HopTrace {
  std::vector<std::uint32_t> ids;
  const NameTable* names = nullptr;  // table the ids were interned against

  // Appends a hop, binding the trace to `table` on first use.
  void record(const NameTable& table, std::uint32_t id) {
    if (names == nullptr) names = &table;
    ids.push_back(id);
  }

  std::size_t size() const { return ids.size(); }
  bool empty() const { return ids.empty(); }
  void clear() { ids.clear(); }

  // Materializes the traversed node names, in order.
  std::vector<std::string> strings() const;

  bool operator==(const HopTrace& other) const { return ids == other.ids; }
};

struct Packet {
  std::uint64_t id = 0;  // unique per Network, assigned at creation
  IpHeader ip;
  SharedBytes l4;  // serialized transport segment (header + payload), CoW

  // --- simulation instrumentation (not on the wire) ---
  SimTime created_at = 0;
  HopTrace hop_trace;  // node ids traversed (ground truth)
  // Causal trace that caused this packet (telemetry/trace.h ids); 0 =
  // untraced. Out-of-band like the hop trace: invisible to protocol logic,
  // read by the flight recorder so sampled packets join stitched traces.
  std::uint64_t trace_id = 0;

  std::size_t size() const { return IpHeader::kWireSize + l4.size(); }

  // Stable 5-tuple-ish hash used by ECMP-style choices and flow counters.
  // L4 ports are not parsed here; uses src/dst/proto plus a prefix of l4.
  std::uint64_t flow_hash() const;
};

}  // namespace pvn
