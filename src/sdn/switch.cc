#include "sdn/switch.h"

namespace pvn {

std::string to_string(const Action& action) {
  struct V {
    std::string operator()(const ActOutput& a) {
      return "output:" + std::to_string(a.port);
    }
    std::string operator()(const ActDrop&) { return "drop"; }
    std::string operator()(const ActSetTos& a) {
      return "set_tos:" + std::to_string(a.tos);
    }
    std::string operator()(const ActSetDst& a) {
      return "set_dst:" + a.dst.to_string();
    }
    std::string operator()(const ActMbox& a) { return "mbox:" + a.chain_id; }
    std::string operator()(const ActMeter& a) { return "meter:" + a.meter_id; }
    std::string operator()(const ActGotoTable& a) {
      return "goto:" + std::to_string(a.table);
    }
    std::string operator()(const ActTunnel& a) {
      return "tunnel:" + a.gateway.to_string();
    }
  };
  return std::visit(V{}, action);
}

SdnSwitch::SdnSwitch(Network& net, std::string name, int num_tables)
    : Node(net, std::move(name)),
      tables_(static_cast<std::size_t>(num_tables < 1 ? 1 : num_tables)) {
  auto& reg = telemetry::MetricsRegistry::global();
  const std::string& inst = this->name();
  m_packets_in_ = &reg.counter("sdn.switch.packets_in", inst);
  m_forwarded_ = &reg.counter("sdn.switch.forwarded", inst);
  m_dropped_rule_ = &reg.counter("sdn.switch.dropped_rule", inst);
  m_dropped_miss_ = &reg.counter("sdn.switch.dropped_miss", inst);
  m_dropped_meter_ = &reg.counter("sdn.switch.dropped_meter", inst);
  m_diverted_mbox_ = &reg.counter("sdn.switch.diverted_mbox", inst);
  m_tunneled_ = &reg.counter("sdn.switch.tunneled", inst);
}

void SdnSwitch::add_meter(const std::string& id, Rate rate,
                          std::int64_t burst_bytes) {
  meters_[id] = std::make_unique<Meter>(rate, burst_bytes);
}

Meter* SdnSwitch::meter(const std::string& id) {
  const auto it = meters_.find(id);
  return it == meters_.end() ? nullptr : it->second.get();
}

void SdnSwitch::register_processor(const std::string& chain_id,
                                   PacketProcessor* proc) {
  processors_[chain_id] = proc;
}

void SdnSwitch::unregister_processor(const std::string& chain_id) {
  processors_.erase(chain_id);
}

void SdnSwitch::handle_packet(Packet pkt, int in_port) {
  ++stats_.packets_in;
  m_packets_in_->inc();
  if (pipeline_latency_ > 0) {
    sim().schedule_after(pipeline_latency_, SimCategory::kSwitch,
                         [this, pkt = std::move(pkt), in_port]() mutable {
                           run_pipeline(std::move(pkt), in_port, 0);
                         });
  } else {
    run_pipeline(std::move(pkt), in_port, 0);
  }
}

void SdnSwitch::run_pipeline(Packet pkt, int in_port, int table_index) {
  if (table_index >= table_count()) {
    ++stats_.dropped_miss;
    m_dropped_miss_->inc();
    return;
  }
  const FlowRule* rule =
      tables_[static_cast<std::size_t>(table_index)].lookup(pkt, in_port);
  if (rule == nullptr) {
    if (table_index == 0 && default_port_) {
      ++stats_.forwarded;
      m_forwarded_->inc();
      send(*default_port_, std::move(pkt));
    } else {
      ++stats_.dropped_miss;
      m_dropped_miss_->inc();
    }
    return;
  }
  execute(rule->actions, 0, std::move(pkt), in_port);
}

void SdnSwitch::execute(const ActionList& actions, std::size_t start,
                        Packet pkt, int in_port) {
  for (std::size_t i = start; i < actions.size(); ++i) {
    const Action& action = actions[i];
    if (const auto* out = std::get_if<ActOutput>(&action)) {
      ++stats_.forwarded;
      m_forwarded_->inc();
      send(out->port, std::move(pkt));
      return;
    }
    if (std::get_if<ActDrop>(&action) != nullptr) {
      ++stats_.dropped_rule;
      m_dropped_rule_->inc();
      return;
    }
    if (const auto* set_tos = std::get_if<ActSetTos>(&action)) {
      pkt.ip.tos = set_tos->tos;
      continue;
    }
    if (const auto* set_dst = std::get_if<ActSetDst>(&action)) {
      pkt.ip.dst = set_dst->dst;
      continue;
    }
    if (const auto* meter_act = std::get_if<ActMeter>(&action)) {
      Meter* m = meter(meter_act->meter_id);
      if (m == nullptr ||
          !m->conforms(static_cast<std::int64_t>(pkt.size()), sim().now())) {
        ++stats_.dropped_meter;
        m_dropped_meter_->inc();
        return;
      }
      continue;
    }
    if (const auto* goto_table = std::get_if<ActGotoTable>(&action)) {
      run_pipeline(std::move(pkt), in_port, goto_table->table);
      return;
    }
    if (const auto* tunnel = std::get_if<ActTunnel>(&action)) {
      if (!tunnel_encap_) {
        ++stats_.dropped_rule;
        m_dropped_rule_->inc();
        return;
      }
      ++stats_.tunneled;
      m_tunneled_->inc();
      pkt = tunnel_encap_(std::move(pkt), tunnel->gateway);
      continue;
    }
    if (const auto* mbox = std::get_if<ActMbox>(&action)) {
      const auto it = processors_.find(mbox->chain_id);
      if (it == processors_.end()) {
        ++stats_.dropped_rule;
        m_dropped_rule_->inc();
        return;
      }
      ++stats_.diverted_mbox;
      m_diverted_mbox_->inc();
      SimDuration delay = 0;
      std::vector<Packet> outs =
          it->second->process(std::move(pkt), sim().now(), delay);
      // Continue the remaining actions for each emitted packet after the
      // chain's processing delay.
      for (Packet& out : outs) {
        if (delay > 0) {
          // Copy the tail of the action list: the rule may be removed
          // before the deferred continuation runs.
          sim().schedule_after(
              delay, SimCategory::kMbox, [this, acts = actions, i, out = std::move(out),
                      in_port]() mutable {
                execute(acts, i + 1, std::move(out), in_port);
              });
        } else {
          execute(actions, i + 1, std::move(out), in_port);
        }
      }
      return;
    }
  }
  // Action list exhausted without output/drop: drop.
  ++stats_.dropped_rule;
  m_dropped_rule_->inc();
}

}  // namespace pvn
