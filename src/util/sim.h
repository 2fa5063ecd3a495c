// Discrete-event simulation kernel.
//
// A Simulator owns the virtual clock and a binary-heap event queue. Every
// component in the repository (links, TCP endpoints, middlebox hosts,
// protocol state machines) schedules work through one shared Simulator, so
// whole-network runs are single-threaded and deterministic by design.
//
// Hot-path design (see DESIGN.md "Hot paths and performance model"):
//   * Callbacks are stored in EventFn, a move-only callable with a 120-byte
//     inline buffer, so capture-light lambdas (including ones carrying a
//     whole Packet) never touch the heap per event.
//   * Events live in generation-tagged slots; the heap holds (when, seq,
//     slot, gen) entries only. cancel() is O(1): it disarms the slot and
//     frees the callback immediately, so cancelled state never accumulates
//     across long runs (the heap entry is reclaimed lazily on pop, and a
//     compaction pass bounds dead heap entries under mass-cancel churn).
//   * Tie-break contract: same-time events run in schedule order (FIFO by a
//     per-simulator sequence number). schedule_at() with `when` in the past
//     clamps to now() and therefore runs *after* every event already queued
//     at now() — a late event never jumps the queue.
//   * Time barriers (at_time_barrier) give observers — the ops endpoint's
//     snapshots, the chaos auditor, periodic health windows — a cut at an
//     exact simulated instant: every event before it has run, none at or
//     after it has. They cost the event loop nothing: registering one lowers
//     the run's stop time, so the loop keeps its single deadline compare.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/time.h"

namespace pvn {

// Handle used to cancel a scheduled event. Encodes (generation << 32 | slot);
// stale handles (already fired or cancelled) are recognized by a generation
// mismatch and ignored.
using EventId = std::uint64_t;
constexpr EventId kInvalidEventId = 0;

// Callback category for the simulator profiler. Scheduling call sites tag
// their events (defaulting to kOther); the run loop attributes event counts
// (always) and wall-clock time (when profiling is enabled) per category, so
// benches can report where simulated *and* real time goes.
enum class SimCategory : std::uint8_t {
  kOther = 0,
  kLink,        // per-hop delivery / queue drain (netsim/link.cc)
  kSwitch,      // SDN pipeline latency (sdn/switch.cc)
  kMbox,        // chain continuations, instantiation (mbox/)
  kPvnControl,  // discovery/deploy/lease timers (pvn/)
  kTunnel,      // tunnel endpoints (tunnel/)
  kProto,       // protocol timers (proto/)
  kFault,       // injected faults (netsim/faults.cc)
  kWorkload,    // traffic generators (workload/)
};
constexpr std::size_t kSimCategoryCount =
    static_cast<std::size_t>(SimCategory::kWorkload) + 1;
const char* to_string(SimCategory c);

// Per-category event counts and wall-clock attribution. Event counts are
// always maintained (one array increment per event); wall_ns is only
// populated while profiling is enabled (two steady_clock reads per event).
struct SimProfile {
  struct Entry {
    std::uint64_t events = 0;
    std::uint64_t wall_ns = 0;
  };
  Entry by_category[kSimCategoryCount];

  Entry& operator[](SimCategory c) {
    return by_category[static_cast<std::size_t>(c)];
  }
  const Entry& operator[](SimCategory c) const {
    return by_category[static_cast<std::size_t>(c)];
  }
  std::uint64_t total_events() const {
    std::uint64_t n = 0;
    for (const Entry& e : by_category) n += e.events;
    return n;
  }
  std::uint64_t total_wall_ns() const {
    std::uint64_t n = 0;
    for (const Entry& e : by_category) n += e.wall_ns;
    return n;
  }
};

// Move-only type-erased void() callable with a small-buffer-optimized store.
// Callables up to kInlineSize bytes (and max_align_t alignment) are stored
// inline; larger ones fall back to a heap allocation.
class EventFn {
 public:
  static constexpr std::size_t kInlineSize = 120;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& fn) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineSize &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      heap_ = new D(std::forward<F>(fn));
      ops_ = &kHeapOps<D>;
    }
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }
  bool inlined() const { return ops_ != nullptr && heap_ == nullptr; }

  void operator()() { ops_->invoke(target()); }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(target());
      ops_ = nullptr;
      heap_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move-constructs the callable into `dst` and destroys the source
    // (inline storage only; heap callables move by pointer steal).
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* p) { (*static_cast<D*>(p))(); },
      [](void* dst, void* src) {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* p) { static_cast<D*>(p)->~D(); },
  };
  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* p) { (*static_cast<D*>(p))(); },
      nullptr,
      [](void* p) { delete static_cast<D*>(p); },
  };

  void* target() { return heap_ != nullptr ? heap_ : static_cast<void*>(buf_); }

  void move_from(EventFn& other) noexcept {
    ops_ = other.ops_;
    heap_ = other.heap_;
    if (ops_ != nullptr && other.heap_ == nullptr) {
      ops_->relocate(buf_, other.buf_);
    }
    other.ops_ = nullptr;
    other.heap_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  void* heap_ = nullptr;
  const Ops* ops_ = nullptr;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedules `fn` to run at absolute time `when` (clamped to now()).
  template <typename F>
  EventId schedule_at(SimTime when, F&& fn) {
    return schedule_fn(when, EventFn(std::forward<F>(fn)), SimCategory::kOther);
  }
  template <typename F>
  EventId schedule_at(SimTime when, SimCategory cat, F&& fn) {
    return schedule_fn(when, EventFn(std::forward<F>(fn)), cat);
  }

  // Schedules `fn` to run `delay` nanoseconds from now.
  template <typename F>
  EventId schedule_after(SimDuration delay, F&& fn) {
    return schedule_fn(now_ + (delay < 0 ? 0 : delay),
                       EventFn(std::forward<F>(fn)), SimCategory::kOther);
  }
  template <typename F>
  EventId schedule_after(SimDuration delay, SimCategory cat, F&& fn) {
    return schedule_fn(now_ + (delay < 0 ? 0 : delay),
                       EventFn(std::forward<F>(fn)), cat);
  }

  // Cancels a pending event in O(1). Safe to call with kInvalidEventId or an
  // already-fired/cancelled event id (both are no-ops).
  void cancel(EventId id);

  // Runs events until the queue drains or the clock would pass `deadline`,
  // firing due time barriers on the way. Once no event is left, the clock
  // lands on `deadline`. Returns the number of events executed.
  std::size_t run_until(SimTime deadline);

  // Runs until the event queue is empty (due barriers fire on the way).
  std::size_t run();

  // Time barrier: `fn` runs after every event with when < `when` and before
  // any event with when >= `when`, including events already queued at
  // `when`. The clock is not moved: inside `fn`, now() is the time of the
  // last event executed. Barriers with equal `when` fire in registration
  // order. A barrier past a run's deadline stays pending for a later run,
  // and one registered at or before now() fires right after the current
  // event. Registration is legal from anywhere, event handlers and other
  // barriers included.
  template <typename F>
  void at_time_barrier(SimTime when, F&& fn) {
    add_barrier(when, EventFn(std::forward<F>(fn)));
  }
  std::size_t pending_barriers() const { return barriers_.size(); }
  std::uint64_t barriers_fired() const { return barriers_fired_; }

  std::size_t pending_events() const { return live_; }
  // Heap entries currently held: live events plus cancelled entries not yet
  // reclaimed. Compaction keeps this O(pending_events()); exposed so the
  // mass-cancel churn regression can assert the bound.
  std::size_t heap_size() const { return heap_.size(); }

  // --- profiler (see SimProfile above) -----------------------------------
  // Per-category event counts are always collected; wall-clock attribution
  // (two steady_clock reads per event) only while enabled.
  void enable_profiling(bool on) { profiling_ = on; }
  bool profiling_enabled() const { return profiling_; }
  const SimProfile& profile() const { return profile_; }
  void reset_profile() { profile_ = SimProfile{}; }

 private:
  // Heap entries are 24 bytes; the callback lives in its slot until fired or
  // cancelled. `gen` detects stale entries after a slot is recycled.
  struct HeapEntry {
    SimTime when;
    std::uint64_t seq;  // tie-break: FIFO among same-time events
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Slot {
    std::uint32_t gen = 1;
    bool armed = false;
    SimCategory cat = SimCategory::kOther;
    EventFn fn;
  };

  EventId schedule_fn(SimTime when, EventFn fn, SimCategory cat);
  void add_barrier(SimTime when, EventFn fn);
  // The event loop behind run_until() and run(): executes events up to
  // `deadline` and fires every barrier at or before it.
  std::size_t run_to(SimTime deadline);
  // Pops the earliest live event with when <= deadline (reclaiming any
  // cancelled entries it passes). Returns false if there is none.
  bool pop_one_until(SimTime deadline, SimTime& when_out, EventFn& fn_out,
                     SimCategory& cat_out);
  // Drops dead heap entries (cancelled events) and re-heapifies. Execution
  // order is unaffected: pop order is fully determined by the (when, seq)
  // total order, not by the heap's internal layout.
  void compact_heap();
  // Runs a popped event, charging the profiler.
  void dispatch(EventFn& fn, SimCategory cat);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::vector<HeapEntry> heap_;  // binary min-heap on (when, seq)
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;
  // Last event time the running loop may execute: the caller's deadline,
  // lowered to just before the earliest pending barrier.
  SimTime stop_ = 0;
  // Pending barriers by time; equal times keep registration order.
  std::multimap<SimTime, EventFn> barriers_;
  std::uint64_t barriers_fired_ = 0;
  bool profiling_ = false;
  SimProfile profile_;
};

}  // namespace pvn
