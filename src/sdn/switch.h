// The programmable access-network dataplane: a multi-table match/action
// switch with meters, middlebox diversion, and tunnel encapsulation hooks.
//
// This is the element a PVN deployment programs: the compiler (src/pvn)
// turns a PVNC into FlowRules + middlebox chains, and the DeploymentServer
// installs them here via the Controller.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "netsim/network.h"
#include "netsim/node.h"
#include "sdn/flow_table.h"
#include "sdn/meter.h"
#include "telemetry/metrics.h"

namespace pvn {

// Implemented by middlebox chains (src/mbox); keeps sdn ← mbox layering
// acyclic. process() consumes a packet and returns the packets to continue
// with (empty = dropped/absorbed), plus the processing delay to charge.
class PacketProcessor {
 public:
  virtual ~PacketProcessor() = default;
  virtual std::vector<Packet> process(Packet pkt, SimTime now,
                                      SimDuration& delay) = 0;
};

// Encapsulation hook (src/tunnel): wraps the packet for a tunnel gateway.
using TunnelEncap = std::function<Packet(Packet inner, Ipv4Addr gateway)>;

struct SwitchStats {
  std::uint64_t packets_in = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t dropped_rule = 0;
  std::uint64_t dropped_miss = 0;
  std::uint64_t dropped_meter = 0;
  std::uint64_t diverted_mbox = 0;
  std::uint64_t tunneled = 0;
};

class SdnSwitch : public Node {
 public:
  SdnSwitch(Network& net, std::string name, int num_tables = 2);

  FlowTable& table(int index = 0) { return tables_.at(static_cast<std::size_t>(index)); }
  int table_count() const { return static_cast<int>(tables_.size()); }

  void add_meter(const std::string& id, Rate rate, std::int64_t burst_bytes);
  Meter* meter(const std::string& id);

  void register_processor(const std::string& chain_id, PacketProcessor* proc);
  void unregister_processor(const std::string& chain_id);
  void set_tunnel_encap(TunnelEncap encap) { tunnel_encap_ = std::move(encap); }

  // Table-miss behaviour for table 0 (later tables always drop on miss):
  // if set, missing packets go out this port; otherwise they are dropped.
  void set_default_port(int port) { default_port_ = port; }

  void handle_packet(Packet pkt, int in_port) override;

  const SwitchStats& stats() const { return stats_; }

  // Per-pipeline-packet processing latency (models lookup cost). Charged
  // once per ingress packet before actions execute.
  void set_pipeline_latency(SimDuration d) { pipeline_latency_ = d; }

 private:
  void run_pipeline(Packet pkt, int in_port, int table_index);
  void execute(const ActionList& actions, std::size_t start, Packet pkt,
               int in_port);

  std::vector<FlowTable> tables_;
  std::map<std::string, std::unique_ptr<Meter>> meters_;
  std::map<std::string, PacketProcessor*> processors_;
  TunnelEncap tunnel_encap_;
  std::optional<int> default_port_;
  SimDuration pipeline_latency_ = 0;
  SwitchStats stats_;
  // Telemetry cells registered under instance = switch name, mirroring the
  // SwitchStats fields the exporters and the auditor consume.
  telemetry::Counter* m_packets_in_ = nullptr;
  telemetry::Counter* m_forwarded_ = nullptr;
  telemetry::Counter* m_dropped_rule_ = nullptr;
  telemetry::Counter* m_dropped_miss_ = nullptr;
  telemetry::Counter* m_dropped_meter_ = nullptr;
  telemetry::Counter* m_diverted_mbox_ = nullptr;
  telemetry::Counter* m_tunneled_ = nullptr;
};

}  // namespace pvn
