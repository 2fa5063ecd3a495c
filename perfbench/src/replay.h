#pragma once

#include "bench.h"

namespace perfbench {

// Results of the replay timers (replay.cc).
struct Replay {
  std::uint64_t adds = 0, lookups = 0, removes = 0;
  double add_us = 0, lookup_ns = 0, remove_us = 0;
  double sdn_s = 0;  // total time inside FlowTable calls

  std::uint64_t chain_packets = 0;
  double chain_ns_per_packet = 0;
  double mbox_s = 0;

  std::uint64_t compiled_rules = 0;
  double compile_us = 0;  // per compile_pvnc call
  double decode_ns = 0;   // per captured control frame
  std::uint64_t bad_frames = 0;
  double pvn_s = 0;

  double telemetry_s = 0;
};

Replay replay_all(const Capture& cap, WallTrace& trace);

}  // namespace perfbench
