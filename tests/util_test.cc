// Unit and property tests for the simulation kernel, byte codecs, RNG, and
// structural crypto in src/util.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdarg>
#include <cstring>
#include <memory>
#include <vector>

#include "util/bytes.h"
#include "util/log.h"
#include "util/digest.h"
#include "util/rng.h"
#include "util/sim.h"
#include "util/units.h"

namespace pvn {
namespace {

// --- Simulator --------------------------------------------------------------

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(milliseconds(30), [&] { order.push_back(3); });
  sim.schedule_at(milliseconds(10), [&] { order.push_back(1); });
  sim.schedule_at(milliseconds(20), [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), milliseconds(30));
}

TEST(Simulator, SameTimeEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  SimTime fired = -1;
  sim.schedule_at(seconds(1), [&] {
    sim.schedule_after(milliseconds(500), [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, seconds(1) + milliseconds(500));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(milliseconds(1), [&] { ran = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelInvalidAndSpentIdsAreNoOps) {
  Simulator sim;
  sim.cancel(kInvalidEventId);
  bool ran = false;
  const EventId id = sim.schedule_at(0, [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  sim.cancel(id);  // already fired; must not disturb future events
  bool ran2 = false;
  sim.schedule_after(1, [&] { ran2 = true; });
  sim.run();
  EXPECT_TRUE(ran2);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(seconds(i), [&] { ++count; });
  }
  EXPECT_EQ(sim.run_until(seconds(5)), 5u);
  EXPECT_EQ(count, 5);
  EXPECT_LE(sim.now(), seconds(5));
  EXPECT_EQ(sim.run(), 5u);
}

TEST(Simulator, RunUntilAdvancesClockOnEmptyQueue) {
  Simulator sim;
  sim.run_until(seconds(3));
  EXPECT_EQ(sim.now(), seconds(3));
}

TEST(Simulator, PastScheduleClampsToNow) {
  Simulator sim;
  sim.schedule_at(seconds(2), [&] {
    SimTime fired = -1;
    sim.schedule_at(seconds(1), [&sim, &fired] { fired = sim.now(); });
    (void)fired;
  });
  sim.run();
  EXPECT_EQ(sim.now(), seconds(2));
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule_after(milliseconds(1), recurse);
  };
  sim.schedule_at(0, recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
}

TEST(Simulator, PendingEventsExcludesCancelled) {
  Simulator sim;
  const EventId a = sim.schedule_at(milliseconds(1), [] {});
  sim.schedule_at(milliseconds(2), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.cancel(a);  // double-cancel is a no-op
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Regression for the PR 1 lease-renewal pattern: schedule+cancel repeated
// indefinitely (timers that are always re-armed before firing) must not
// accumulate cancellation state or grow pending_events.
TEST(Simulator, RepeatedScheduleCancelCyclesDoNotAccumulateState) {
  Simulator sim;
  int fired = 0;
  EventId timer = kInvalidEventId;
  for (int i = 0; i < 10000; ++i) {
    sim.cancel(timer);  // for most iterations cancels an unfired event
    timer = sim.schedule_after(seconds(1000), [&] { ++fired; });
    EXPECT_EQ(sim.pending_events(), 1u);
    // Drive unrelated traffic so the queue keeps churning.
    sim.schedule_after(1, [] {});
    sim.run_until(sim.now() + 2);
  }
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(fired, 0);
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, CancelledEventIdIsStaleAfterSlotReuse) {
  Simulator sim;
  bool first = false, second = false;
  const EventId a = sim.schedule_at(milliseconds(1), [&] { first = true; });
  sim.cancel(a);
  sim.run();  // reclaims the slot
  [[maybe_unused]] const EventId b =
      sim.schedule_at(milliseconds(2), [&] { second = true; });
  sim.cancel(a);  // stale id, possibly pointing at b's recycled slot
  sim.run();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
}

// --- mass-cancel churn (lease-style timer workloads) -----------------------

TEST(SimulatorChurn, MassCancelKeepsHeapBounded) {
  Simulator sim;
  // A rotating set of armed timers, like lease renewals that are cancelled
  // and re-armed on every heartbeat. One million churn iterations used to
  // leave one dead heap entry each; compaction must keep the heap
  // proportional to the live set.
  constexpr std::size_t kLive = 512;
  constexpr std::size_t kChurn = 1'000'000;
  std::vector<EventId> ids(kLive, kInvalidEventId);
  for (std::size_t i = 0; i < kLive; ++i) {
    ids[i] = sim.schedule_at(static_cast<SimTime>(1'000'000 + i), [] {});
  }
  for (std::size_t i = 0; i < kChurn; ++i) {
    const std::size_t slot = i % kLive;
    sim.cancel(ids[slot]);
    ids[slot] =
        sim.schedule_at(static_cast<SimTime>(1'000'000 + i % 4096), [] {});
    ASSERT_EQ(sim.pending_events(), kLive);  // exact, not approximate
    // Compaction bound: at most 2x live entries (+ the small floor below
    // which compaction never bothers to run).
    ASSERT_LE(sim.heap_size(), 2 * kLive + 64);
  }
  EXPECT_EQ(sim.pending_events(), kLive);
  std::size_t fired = sim.run();
  EXPECT_EQ(fired, kLive);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.heap_size(), 0u);
}

TEST(SimulatorChurn, CancelAllDrainsHeap) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 10'000; ++i) {
    ids.push_back(sim.schedule_at(100 + i, [] {}));
  }
  for (const EventId id : ids) sim.cancel(id);
  EXPECT_EQ(sim.pending_events(), 0u);
  // Compaction triggers on the way down; the heap must not retain ~10k
  // corpses until the next run().
  EXPECT_LE(sim.heap_size(), 64u);
  EXPECT_EQ(sim.run(), 0u);
}

// --- tie-break contract ----------------------------------------------------

TEST(SimulatorTieBreak, SameTimeEventsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(10, [&] { order.push_back(2); });
  sim.schedule_at(5, [&] { order.push_back(0); });
  sim.schedule_at(10, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimulatorTieBreak, ScheduleAtInPastClampsAndNeverJumpsTheQueue) {
  Simulator sim;
  std::vector<int> order;
  // Event A (t=10) schedules X at t=5 — in the past. X must clamp to now()
  // and run AFTER B, which was already queued at t=10 before A executed.
  sim.schedule_at(10, [&] {
    order.push_back(1);
    sim.schedule_at(5, [&] {
      order.push_back(3);
      EXPECT_EQ(sim.now(), 10);  // clamped, the clock never rewinds
    });
  });
  sim.schedule_at(10, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 10);
}

// --- time barriers -----------------------------------------------------------

// Records the run order of events (by id) and barriers (by -id).
struct OrderLog {
  std::vector<int> order;
  auto event(int id) {
    return [this, id] { order.push_back(id); };
  }
  auto barrier(int id) {
    return [this, id] { order.push_back(-id); };
  }
};

TEST(SimulatorBarrier, FiresAfterEarlierEventsAndBeforeLaterOnes) {
  Simulator sim;
  OrderLog log;
  sim.schedule_at(5, log.event(5));
  sim.schedule_at(10, log.event(10));
  sim.schedule_at(15, log.event(15));
  SimTime clock_at_barrier = -1;
  sim.at_time_barrier(10, [&] {
    log.order.push_back(-1);
    clock_at_barrier = sim.now();
  });
  EXPECT_EQ(sim.pending_barriers(), 1u);
  sim.run_until(100);
  // The event already queued at the barrier's time runs after it.
  EXPECT_EQ(log.order, (std::vector<int>{5, -1, 10, 15}));
  // The clock is not moved to the barrier: it reads the last event's time.
  EXPECT_EQ(clock_at_barrier, 5);
  EXPECT_EQ(sim.pending_barriers(), 0u);
  EXPECT_EQ(sim.barriers_fired(), 1u);
}

TEST(SimulatorBarrier, EqualTimesFireInRegistrationOrder) {
  Simulator sim;
  OrderLog log;
  sim.schedule_at(20, log.event(20));
  sim.at_time_barrier(20, log.barrier(2));
  sim.at_time_barrier(10, log.barrier(1));
  sim.at_time_barrier(20, log.barrier(3));
  sim.at_time_barrier(20, log.barrier(4));
  sim.run();
  EXPECT_EQ(log.order, (std::vector<int>{-1, -2, -3, -4, 20}));
}

TEST(SimulatorBarrier, PastTheDeadlineStaysPending) {
  Simulator sim;
  OrderLog log;
  sim.schedule_at(10, log.event(10));
  sim.schedule_at(60, log.event(60));
  sim.at_time_barrier(51, log.barrier(1));
  sim.run_until(50);
  EXPECT_EQ(log.order, (std::vector<int>{10}));
  EXPECT_EQ(sim.pending_barriers(), 1u);
  sim.run_until(100);
  EXPECT_EQ(log.order, (std::vector<int>{10, -1, 60}));

  // With no event left, the clock still lands on the deadline and a later
  // barrier waits for a run that reaches it.
  sim.at_time_barrier(500, log.barrier(2));
  sim.run_until(200);
  EXPECT_EQ(sim.now(), 200);
  EXPECT_EQ(sim.pending_barriers(), 1u);
  sim.run_until(500);
  EXPECT_EQ(log.order, (std::vector<int>{10, -1, 60, -2}));
}

TEST(SimulatorBarrier, RegisteredFromAnEventHonoursALaterDeadline) {
  Simulator sim;
  OrderLog log;
  for (int t = 10; t <= 100; t += 10) sim.schedule_at(t, log.event(t));
  // While run_until(1000) is executing, the event at 30 arms a barrier at 55:
  // the running loop must stop for it between the events at 50 and 60.
  sim.schedule_at(30, [&] { sim.at_time_barrier(55, log.barrier(1)); });
  EXPECT_EQ(sim.run_until(1000), 11u);
  EXPECT_EQ(log.order,
            (std::vector<int>{10, 20, 30, 40, 50, -1, 60, 70, 80, 90, 100}));
}

TEST(SimulatorBarrier, RegisteredAtOrBeforeNowFiresAfterTheCurrentEvent) {
  Simulator sim;
  OrderLog log;
  sim.schedule_at(10, [&] {
    log.order.push_back(1);
    sim.at_time_barrier(5, log.barrier(1));
  });
  sim.schedule_at(10, log.event(2));
  sim.run();
  EXPECT_EQ(log.order, (std::vector<int>{1, -1, 2}));
}

TEST(SimulatorBarrier, CallbackWorkRunsInTimeOrder) {
  Simulator sim;
  OrderLog log;
  sim.schedule_at(10, log.event(10));
  sim.schedule_at(30, log.event(30));
  sim.at_time_barrier(20, [&] {
    log.order.push_back(-1);
    // Work scheduled before the next barrier runs before it; a barrier
    // registered at the same time fires next.
    sim.schedule_at(25, log.event(25));
    sim.at_time_barrier(20, log.barrier(2));
    sim.at_time_barrier(28, log.barrier(3));
  });
  sim.run();
  EXPECT_EQ(log.order, (std::vector<int>{10, -1, -2, 25, -3, 30}));
  EXPECT_EQ(sim.barriers_fired(), 3u);
}

TEST(SimulatorBarrier, RunFiresBarriersPastTheLastEvent) {
  Simulator sim;
  OrderLog log;
  sim.schedule_at(10, log.event(10));
  sim.at_time_barrier(1000, log.barrier(1));
  EXPECT_EQ(sim.run(), 1u);  // barriers are not counted as events
  EXPECT_EQ(log.order, (std::vector<int>{10, -1}));
  EXPECT_EQ(sim.now(), 10);
}

// --- EventFn -----------------------------------------------------------------

TEST(EventFn, InvokesInlineAndHeapCallables) {
  int hits = 0;
  EventFn small([&hits] { ++hits; });
  EXPECT_TRUE(small.inlined());
  small();
  EXPECT_EQ(hits, 1);

  struct Big {
    unsigned char pad[256];
  } big{};
  EventFn large([&hits, big] {
    (void)big;
    ++hits;
  });
  EXPECT_FALSE(large.inlined());
  large();
  EXPECT_EQ(hits, 2);
}

TEST(EventFn, MovePreservesCallableAndReleasesSource) {
  int hits = 0;
  EventFn a([&hits] { ++hits; });
  EventFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);

  EventFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(EventFn, PacketSizedCapturesStayInline) {
  // The link-delivery lambda captures a pointer-rich context plus a Packet;
  // it must fit the inline buffer so per-hop scheduling never heap-allocates
  // the callback.
  struct DeliveryCapture {
    void* link;
    void* dir;
    void* from;
    bool lost;
    std::uint64_t id;
    void* shared_payload;
    std::int64_t created_at;
    void* trace_vec[3];
    void* names;
  } cap{};
  EventFn fn([cap] { (void)cap; });
  EXPECT_TRUE(fn.inlined());
  static_assert(sizeof(DeliveryCapture) <= EventFn::kInlineSize);
}

TEST(EventFn, DestroysMoveOnlyCaptureExactlyOnce) {
  auto token = std::make_unique<int>(7);
  int got = 0;
  {
    EventFn fn([&got, token = std::move(token)] { got = *token; });
    EventFn moved(std::move(fn));
    moved();
  }
  EXPECT_EQ(got, 7);
}

// --- Time formatting ---------------------------------------------------------

TEST(TimeFormat, AdaptiveUnits) {
  EXPECT_EQ(format_duration(nanoseconds(5)), "5ns");
  EXPECT_EQ(format_duration(microseconds(45)), "45.000us");
  EXPECT_EQ(format_duration(milliseconds(30)), "30.000ms");
  EXPECT_EQ(format_duration(seconds(2)), "2.000s");
}

// --- Rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliApproximatesProbability) {
  Rng r(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialHasRoughlyCorrectMean) {
  Rng r(17);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.15);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowZeroBoundYieldsZero) {
  Rng r(23);
  EXPECT_EQ(r.next_below(0), 0u);
}

// --- ByteWriter / ByteReader ---------------------------------------------------

TEST(Bytes, RoundTripScalars) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(3.14159);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, BigEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.bytes()[0], 0x01);
  EXPECT_EQ(w.bytes()[3], 0x04);
}

TEST(Bytes, RoundTripStringsAndBlobs) {
  ByteWriter w;
  w.str("hello pvn");
  w.blob(to_bytes("payload"));
  w.str("");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.str(), "hello pvn");
  EXPECT_EQ(to_string(r.blob()), "payload");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, OverrunLatchesError) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u32(), 0u);  // overrun
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u);  // still failed
  EXPECT_FALSE(r.exhausted());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, TruncatedBlobFails) {
  ByteWriter w;
  w.u32(100);  // claims 100 bytes follow
  w.u8(1);
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.blob().empty());
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, EmptyReaderIsExhausted) {
  ByteReader r(Bytes{});
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(r.remaining(), 0u);
}

// --- Digest / HMAC / signatures ------------------------------------------------

TEST(Digest, DeterministicAndInputSensitive) {
  EXPECT_EQ(digest_of("hello"), digest_of("hello"));
  EXPECT_NE(digest_of("hello"), digest_of("hellp"));
  EXPECT_NE(digest_of("hello"), digest_of("hell"));
  EXPECT_NE(digest_of(""), digest_of(std::string_view("\0", 1)));
}

TEST(Digest, HexIs64Chars) {
  EXPECT_EQ(digest_of("x").hex().size(), 64u);
}

TEST(Digest, BytesRoundTrip) {
  const Digest d = digest_of("round trip");
  const auto back = Digest::from_bytes(d.to_bytes());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, d);
}

TEST(Digest, FromBytesRejectsWrongLength) {
  EXPECT_FALSE(Digest::from_bytes(Bytes(31, 0)).has_value());
  EXPECT_FALSE(Digest::from_bytes(Bytes(33, 0)).has_value());
}

TEST(Hmac, KeyedAndDataSensitive) {
  const Bytes k1 = to_bytes("key1"), k2 = to_bytes("key2");
  const Bytes m = to_bytes("message");
  EXPECT_EQ(hmac(k1, m), hmac(k1, m));
  EXPECT_NE(hmac(k1, m), hmac(k2, m));
  EXPECT_NE(hmac(k1, m), hmac(k1, to_bytes("messagf")));
}

TEST(Signatures, VerifyAcceptsGenuineSignature) {
  KeyPair kp(1234);
  KeyRegistry registry;
  registry.trust(kp);
  const Bytes msg = to_bytes("attestation quote");
  const Signature sig = kp.sign(msg);
  EXPECT_TRUE(registry.verify(kp.public_key(), msg, sig));
}

TEST(Signatures, VerifyRejectsTamperedMessage) {
  KeyPair kp(1234);
  KeyRegistry registry;
  registry.trust(kp);
  const Signature sig = kp.sign(to_bytes("original"));
  EXPECT_FALSE(registry.verify(kp.public_key(), to_bytes("tampered"), sig));
}

TEST(Signatures, VerifyRejectsUnknownKey) {
  KeyPair kp(1), other(2);
  KeyRegistry registry;
  registry.trust(other);
  const Bytes msg = to_bytes("m");
  EXPECT_FALSE(registry.verify(kp.public_key(), msg, kp.sign(msg)));
}

TEST(Signatures, VerifyRejectsWrongSigner) {
  KeyPair a(1), b(2);
  KeyRegistry registry;
  registry.trust(a);
  registry.trust(b);
  const Bytes msg = to_bytes("m");
  // b's signature presented as a's.
  EXPECT_FALSE(registry.verify(a.public_key(), msg, b.sign(msg)));
}

TEST(Signatures, RevokedKeyFailsVerification) {
  KeyPair kp(99);
  KeyRegistry registry;
  registry.trust(kp);
  const Bytes msg = to_bytes("m");
  const Signature sig = kp.sign(msg);
  registry.revoke(kp.public_key());
  EXPECT_FALSE(registry.verify(kp.public_key(), msg, sig));
  EXPECT_FALSE(registry.trusts(kp.public_key()));
}

TEST(Signatures, DistinctSeedsDistinctKeys) {
  EXPECT_NE(KeyPair(1).public_key(), KeyPair(2).public_key());
}

// --- Units ---------------------------------------------------------------------

TEST(Units, TransmitTimeMatchesRate) {
  // 1500 bytes at 12 Mbps = 1500*8/12e6 s = 1 ms.
  EXPECT_EQ(Rate::mbps(12).transmit_time(1500), milliseconds(1));
  // Zero-rate links serialize instantly (modelling "infinite" capacity).
  EXPECT_EQ(Rate::bps(0).transmit_time(1500), 0);
}

TEST(Units, RateConstructors) {
  EXPECT_EQ(Rate::kbps(1500).bits_per_second, 1'500'000);
  EXPECT_EQ(Rate::mbps(100).bits_per_second, 100'000'000);
  EXPECT_DOUBLE_EQ(Rate::mbps(100).mbps_value(), 100.0);
  EXPECT_EQ(Rate::gbps(1).bits_per_second, 1'000'000'000);
}


// --- Logger formatting -------------------------------------------------------

// format_log_message takes a va_list; this shim lets tests call it variadic.
std::size_t format_into(char* buf, std::size_t size, const char* fmt, ...)
    PVN_PRINTF(3, 4);
std::size_t format_into(char* buf, std::size_t size, const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  const std::size_t n = format_log_message(buf, size, fmt, ap);
  va_end(ap);
  return n;
}

TEST(LogFormat, FittingMessageIsUnchanged) {
  char buf[64];
  const std::size_t n = format_into(buf, sizeof(buf), "x=%d y=%s", 7, "ok");
  EXPECT_EQ(std::string(buf, n), "x=7 y=ok");
}

TEST(LogFormat, OverflowTruncatesWithEllipsis) {
  char buf[16];
  const std::size_t n =
      format_into(buf, sizeof(buf), "%s", "this message is far too long");
  EXPECT_EQ(n, sizeof(buf) - 1);
  EXPECT_EQ(buf[n], '\0');
  // The tail is the 3-byte UTF-8 ellipsis, not a mid-word cut.
  EXPECT_EQ(std::memcmp(buf + n - 3, "\xE2\x80\xA6", 3), 0);
  EXPECT_EQ(std::string(buf, n - 3), "this message");
}

TEST(LogFormat, TinyBuffersStayTerminated) {
  char buf[2] = {'Z', 'Z'};
  // Too small for the ellipsis: plain truncation, still NUL-terminated.
  EXPECT_EQ(format_into(buf, sizeof(buf), "%s", "abc"), 1u);
  EXPECT_EQ(buf[0], 'a');
  EXPECT_EQ(buf[1], '\0');
  EXPECT_EQ(format_into(buf, 0, "%s", "abc"), 0u);
}

// Property sweep: transmit time is monotone in size and antitone in rate.
class TransmitTimeProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TransmitTimeProperty, MonotoneInSizeAntitoneInRate) {
  const auto [mbps, bytes] = GetParam();
  const Rate rate = Rate::mbps(mbps);
  EXPECT_LE(rate.transmit_time(bytes), rate.transmit_time(bytes + 1000));
  if (mbps > 1) {
    EXPECT_LE(rate.transmit_time(bytes), Rate::mbps(mbps - 1).transmit_time(bytes));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TransmitTimeProperty,
    ::testing::Combine(::testing::Values(1, 5, 10, 100, 1000),
                       ::testing::Values(64, 576, 1500, 9000, 65535)));

}  // namespace
}  // namespace pvn
