// MboxHost: the NFV compute pool of an access network, with the resource
// model the paper cites from ClickOS [24] (§3.3 "Scalability and overhead"):
// ~30 ms to instantiate an instance, ~45 µs of added per-packet delay, and
// ~6 MB of memory per instance. Chains built here are registered with the
// SDN switch as PacketProcessors.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "mbox/middlebox.h"
#include "sdn/switch.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "util/units.h"

namespace pvn {

struct MboxHostConfig {
  SimDuration instantiation_delay = milliseconds(30);
  SimDuration per_packet_delay = microseconds(45);
  std::int64_t memory_per_instance = 6 * kMiB;
  std::int64_t memory_budget = 4 * kGiB;
};

// An ordered set of middlebox instances one PVN's traffic traverses.
class Chain : public PacketProcessor {
 public:
  Chain(std::string id, SimDuration per_packet_delay);

  const std::string& id() const { return id_; }
  void append(Middlebox* mbox);
  const std::vector<Middlebox*>& modules() const { return modules_; }

  std::vector<Packet> process(Packet pkt, SimTime now,
                              SimDuration& delay) override;

  const std::vector<MboxFinding>& findings() const { return findings_; }
  std::uint64_t packets() const { return packets_; }

 private:
  // Per-module telemetry cells, cached at append() time so process() never
  // does a registry lookup. Instance label = module name.
  struct ModuleCells {
    telemetry::Counter* processed = nullptr;
    telemetry::Counter* dropped = nullptr;
  };

  std::string id_;
  SimDuration per_packet_delay_;
  std::vector<Middlebox*> modules_;
  std::vector<ModuleCells> module_cells_;
  std::vector<MboxFinding> findings_;
  std::uint64_t packets_ = 0;
  telemetry::Counter* m_packets_ = nullptr;
  telemetry::Counter* m_dropped_ = nullptr;
  telemetry::Counter* m_findings_ = nullptr;
  telemetry::Histogram* m_latency_ns_ = nullptr;
};

class MboxHost {
 public:
  explicit MboxHost(Simulator& sim, MboxHostConfig cfg = {});

  // Instantiates a middlebox (charging instantiation delay + memory).
  // `ready` fires with the instance pointer, or nullptr if the host is out
  // of memory or crashed. The host owns the instance.
  void instantiate(std::unique_ptr<Middlebox> mbox,
                   std::function<void(Middlebox*)> ready);
  // Traced variant: when `trace` is valid, the instantiation delay — the
  // dominant cost of a deploy — is recorded as an "mbox_instantiate" span
  // stitched under the caller's trace, on `node`'s track.
  void instantiate(std::unique_ptr<Middlebox> mbox,
                   std::function<void(Middlebox*)> ready,
                   const telemetry::TraceContext& trace,
                   std::string_view node);

  // Tears down an instance, releasing its memory.
  bool destroy(Middlebox* mbox);

  // Creates an empty chain with the configured per-packet base delay.
  Chain& create_chain(const std::string& id);
  Chain* chain(const std::string& id);
  bool destroy_chain(const std::string& id);

  // Fault injection: drops every instance and chain on the floor (memory
  // returns to zero, like a machine losing power) and refuses new
  // instantiations until restart(). The crash listener fires synchronously
  // so the control plane can unregister now-dead chain processors from the
  // dataplane before another packet is diverted to them.
  void crash();
  void restart() { crashed_ = false; }
  bool crashed() const { return crashed_; }
  int crashes() const { return crashes_; }
  void set_crash_listener(std::function<void()> listener) {
    crash_listener_ = std::move(listener);
  }

  std::int64_t memory_in_use() const { return memory_in_use_; }
  std::int64_t memory_budget() const { return cfg_.memory_budget; }
  int instances() const { return static_cast<int>(owned_.size()); }
  const MboxHostConfig& config() const { return cfg_; }

 private:
  Simulator* sim_;
  MboxHostConfig cfg_;
  std::vector<std::unique_ptr<Middlebox>> owned_;
  std::map<std::string, std::unique_ptr<Chain>> chains_;
  std::int64_t memory_in_use_ = 0;
  bool crashed_ = false;
  int crashes_ = 0;
  std::function<void()> crash_listener_;
  // Aggregate telemetry (hosts carry no name; one pool per testbed).
  telemetry::Counter* m_instantiations_ = nullptr;
  telemetry::Counter* m_instantiation_failures_ = nullptr;
  telemetry::Counter* m_crashes_ = nullptr;
  telemetry::Gauge* m_memory_in_use_ = nullptr;
  telemetry::Gauge* m_instances_ = nullptr;
};

}  // namespace pvn
