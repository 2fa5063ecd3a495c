#include "util/sim.h"

#include <algorithm>
#include <chrono>
#include <limits>

namespace pvn {

const char* to_string(SimCategory c) {
  switch (c) {
    case SimCategory::kOther: return "other";
    case SimCategory::kLink: return "link";
    case SimCategory::kSwitch: return "switch";
    case SimCategory::kMbox: return "mbox";
    case SimCategory::kPvnControl: return "pvn-control";
    case SimCategory::kTunnel: return "tunnel";
    case SimCategory::kProto: return "proto";
    case SimCategory::kFault: return "fault";
    case SimCategory::kWorkload: return "workload";
  }
  return "?";
}

namespace {

constexpr EventId make_event_id(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<EventId>(gen) << 32) | slot;
}
constexpr std::uint32_t event_slot(EventId id) {
  return static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
}
constexpr std::uint32_t event_gen(EventId id) {
  return static_cast<std::uint32_t>(id >> 32);
}

// Min-heap on (when, seq): std::push_heap/pop_heap build a max-heap, so the
// comparator orders later events first.
struct HeapLater {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
};

}  // namespace

EventId Simulator::schedule_fn(SimTime when, EventFn fn, SimCategory cat) {
  if (when < now_) when = now_;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.armed = true;
  s.cat = cat;
  heap_.push_back(HeapEntry{when, next_seq_++, slot, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), HeapLater{});
  ++live_;
  return make_event_id(slot, s.gen);
}

void Simulator::cancel(EventId id) {
  if (id == kInvalidEventId) return;
  const std::uint32_t slot = event_slot(id);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (!s.armed || s.gen != event_gen(id)) return;  // already fired/cancelled
  s.armed = false;
  s.fn.reset();  // release captures now; the heap entry is reclaimed on pop
  --live_;
  // Mass-cancel churn guard: once dead entries outnumber live ones, sweep
  // them out. Each compaction is O(heap) but needs >= live_ fresh cancels to
  // re-trigger, so the amortized cost per cancel stays O(1) and heap_.size()
  // stays O(live_).
  if (heap_.size() >= 64 && heap_.size() > 2 * live_) compact_heap();
}

void Simulator::compact_heap() {
  std::size_t kept = 0;
  for (const HeapEntry& e : heap_) {
    Slot& s = slots_[e.slot];
    if (s.armed && s.gen == e.gen) {
      heap_[kept++] = e;
      continue;
    }
    if (s.gen == e.gen) {
      // Cancelled but not yet retired: retire the slot exactly as the pop
      // path would (stale-ify outstanding ids, recycle the slot).
      ++s.gen;
      s.fn.reset();
      free_slots_.push_back(e.slot);
    }
    // gen mismatch: the slot was already retired (and possibly re-armed
    // under a new generation) — this entry is pure garbage, drop it.
  }
  heap_.resize(kept);
  std::make_heap(heap_.begin(), heap_.end(), HeapLater{});
}

bool Simulator::pop_one_until(SimTime deadline, SimTime& when_out,
                              EventFn& fn_out, SimCategory& cat_out) {
  while (!heap_.empty() && heap_.front().when <= deadline) {
    const HeapEntry top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), HeapLater{});
    heap_.pop_back();
    Slot& s = slots_[top.slot];
    const bool fire = s.armed && s.gen == top.gen;
    // Retire the slot: bump the generation so outstanding EventIds go stale,
    // then recycle it.
    ++s.gen;
    s.armed = false;
    if (fire) {
      fn_out = std::move(s.fn);
      cat_out = s.cat;
    }
    s.fn.reset();
    free_slots_.push_back(top.slot);
    if (fire) {
      --live_;
      when_out = top.when;
      return true;
    }
  }
  return false;
}

void Simulator::dispatch(EventFn& fn, SimCategory cat) {
  SimProfile::Entry& entry = profile_[cat];
  ++entry.events;
  if (profiling_) {
    // Wall-clock attribution is opt-in: the two clock reads dominate the
    // cost of a small event, so benches enable it only when asked.
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    entry.wall_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  } else {
    fn();
  }
}

void Simulator::add_barrier(SimTime when, EventFn fn) {
  if (when < now_) when = now_;
  barriers_.emplace(when, std::move(fn));
  // A running loop must stop before the first event at or after `when`.
  if (when <= stop_) stop_ = when - 1;
}

std::size_t Simulator::run_to(SimTime deadline) {
  std::size_t executed = 0;
  SimTime when;
  EventFn fn;
  SimCategory cat = SimCategory::kOther;
  for (;;) {
    stop_ = deadline;
    if (!barriers_.empty() && barriers_.begin()->first <= deadline) {
      stop_ = barriers_.begin()->first - 1;
    }
    // stop_ is re-read every iteration: a barrier registered by an event
    // lowers it mid-loop.
    while (pop_one_until(stop_, when, fn, cat)) {
      now_ = when;
      dispatch(fn, cat);
      fn.reset();
      ++executed;
    }
    if (barriers_.empty() || barriers_.begin()->first > deadline) break;
    // Every event before the earliest barrier has run and none after it:
    // fire it, then resume (its callback may have scheduled work).
    auto node = barriers_.extract(barriers_.begin());
    ++barriers_fired_;
    node.mapped()();
  }
  return executed;
}

std::size_t Simulator::run_until(SimTime deadline) {
  const std::size_t executed = run_to(deadline);
  if (now_ < deadline && live_ == 0) now_ = deadline;
  return executed;
}

std::size_t Simulator::run() {
  return run_to(std::numeric_limits<SimTime>::max());
}

}  // namespace pvn
