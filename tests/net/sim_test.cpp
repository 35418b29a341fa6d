#include "net/sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "util/rng.h"

namespace uesr::net {
namespace {

using graph::Graph;
using graph::NodeId;
using graph::Port;

LinkModel perfect() {
  LinkModel m;
  m.latency_min = m.latency_max = 1;
  m.loss = 0.0;
  m.dup = 0.0;
  return m;
}

TEST(EventSim, PerfectLinkDeliversToFarEnd) {
  Graph g = graph::from_edges(3, {{0, 1}, {1, 2}});
  EventSim sim(g, 7, perfect());
  sim.send(0, 0, 42);
  auto ev = sim.next();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, SimEventKind::kArrival);
  EXPECT_EQ(ev->node, 1u);
  EXPECT_EQ(ev->port, 0u);
  EXPECT_EQ(ev->from, 0u);
  EXPECT_EQ(ev->frame_id, 42u);
  EXPECT_EQ(ev->time, 1u);
  EXPECT_FALSE(ev->duplicate);
  EXPECT_EQ(sim.now(), 1u);
  EXPECT_FALSE(sim.next().has_value());
  EXPECT_EQ(sim.transmissions(), 1u);
}

TEST(EventSim, HeapOrdersByTimeThenPushSeq) {
  Graph g = graph::cycle(4);
  LinkModel slow = perfect();
  slow.latency_min = slow.latency_max = 5;
  EventSim sim(g, 7, slow);
  sim.send(0, 0, 1);     // arrives at t=5
  sim.set_timer(1, 98);  // t=1: pushed later, due earlier
  sim.set_timer(5, 99);  // t=5, pushed after frame 1's arrival
  auto a = sim.next();   // time orders first, whatever the push order
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->kind, SimEventKind::kTimer);
  EXPECT_EQ(a->timer_id, 98u);
  auto b = sim.next();  // same time as the timer, lower push seq
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->kind, SimEventKind::kArrival);
  EXPECT_EQ(b->frame_id, 1u);
  auto c = sim.next();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->kind, SimEventKind::kTimer);
  EXPECT_EQ(c->timer_id, 99u);
}

TEST(EventSim, FullLossDropsEverything) {
  Graph g = graph::cycle(4);
  LinkModel lossy = perfect();
  lossy.loss = 1.0;
  EventSim sim(g, 7, lossy);
  for (int i = 0; i < 10; ++i) sim.send(0, 0, i);
  EXPECT_FALSE(sim.next().has_value());
  EXPECT_EQ(sim.transmissions(), 10u);  // lost frames were really sent
  EXPECT_EQ(sim.frames_lost(), 10u);
}

TEST(EventSim, FullDuplicationDeliversFlaggedSecondCopy) {
  Graph g = graph::cycle(4);
  LinkModel dup = perfect();
  dup.dup = 1.0;
  EventSim sim(g, 7, dup);
  sim.send(0, 0, 5);
  auto a = sim.next();
  auto b = sim.next();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->frame_id, 5u);
  EXPECT_EQ(b->frame_id, 5u);
  EXPECT_NE(a->duplicate, b->duplicate);  // exactly one copy is the dup
  EXPECT_EQ(sim.frames_duplicated(), 1u);
  EXPECT_EQ(sim.transmissions(), 1u);  // duplication is the channel's doing
}

TEST(EventSim, LatencyJitterStaysInBounds) {
  Graph g = graph::cycle(4);
  LinkModel jitter = perfect();
  jitter.latency_min = 3;
  jitter.latency_max = 9;
  EventSim sim(g, 21, jitter);
  for (int i = 0; i < 50; ++i) {
    EventSim one(g, 21 + i, jitter);
    one.send(2, 0, 0);
    auto ev = one.next();
    ASSERT_TRUE(ev.has_value());
    EXPECT_GE(ev->time, 3u);
    EXPECT_LE(ev->time, 9u);
  }
}

TEST(EventSim, OneSidedLinkDownBlocksOnlyThatDirection) {
  Graph g = graph::from_edges(2, {{0, 1}});
  EventSim sim(g, 7, perfect());
  sim.set_link_up(0, 0, false);  // kill 0 -> 1 only
  EXPECT_FALSE(sim.link_up(0, 0));
  EXPECT_TRUE(sim.link_up(1, 0));
  sim.send(0, 0, 1);  // into the dead direction: lost at departure
  sim.send(1, 0, 2);  // reverse direction still works
  auto ev = sim.next();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->frame_id, 2u);
  EXPECT_EQ(ev->node, 0u);
  EXPECT_FALSE(sim.next().has_value());
  EXPECT_EQ(sim.frames_lost(), 1u);
}

TEST(EventSim, MidFlightDisconnectKillsInFlightFrames) {
  Graph g = graph::from_edges(2, {{0, 1}});
  EventSim sim(g, 7, perfect());
  sim.send(0, 0, 1);           // in flight
  sim.set_link_up(0, 0, false);  // dies before delivery
  EXPECT_FALSE(sim.next().has_value());
  EXPECT_EQ(sim.frames_died_midflight(), 1u);
  // Re-enabling the link does not resurrect dead frames but serves new ones.
  sim.set_link_up(0, 0, true);
  sim.send(0, 0, 2);
  auto ev = sim.next();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->frame_id, 2u);
}

TEST(EventSim, ValidatesArguments) {
  Graph g = graph::cycle(3);
  EventSim sim(g, 7);
  EXPECT_THROW(sim.send(5, 0, 0), std::invalid_argument);
  EXPECT_THROW(sim.send(0, 7, 0), std::invalid_argument);
  EXPECT_THROW(sim.set_link_up(9, 0, false), std::invalid_argument);
  LinkModel inverted;
  inverted.latency_min = 5;
  inverted.latency_max = 2;
  EXPECT_THROW(EventSim(g, 7, inverted), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Deterministic-replay regression suite (the ROADMAP contract, pinned).
// A scripted random driver issues sends/timers/flips; the trace must be a
// pure function of (seed, script).
// ---------------------------------------------------------------------------

LinkModel chaos() {
  LinkModel m;
  m.latency_min = 1;
  m.latency_max = 7;
  m.loss = 0.2;
  m.dup = 0.15;
  return m;
}

/// Issues `ops` scripted operations against the sim, interleaving sends,
/// timers, one-sided flips and pops — all drawn from the script seed.
void drive(EventSim& sim, const Graph& g, std::uint64_t script_seed, int ops) {
  util::Pcg32 script(script_seed);
  for (int i = 0; i < ops; ++i) {
    const NodeId v = script.next_below(g.num_nodes());
    const Port p = script.next_below(g.degree(v));
    switch (script.next_below(8)) {
      case 0:
        sim.set_timer(1 + script.next_below(16), i);
        break;
      case 1:
        sim.set_link_up(v, p, false);
        break;
      case 2:
        sim.set_link_up(v, p, true);
        break;
      case 3:
      case 4:
        sim.next();
        break;
      default:
        sim.send(v, p, i);
        break;
    }
  }
  while (sim.next().has_value()) {
  }
}

TEST(EventSimReplay, SameSeedGivesByteIdenticalEventTrace) {
  const Graph g = graph::connected_gnp(12, 0.3, 5);
  constexpr std::size_t kLimit = 10000;
  std::vector<std::string> traces[2];
  for (int run = 0; run < 2; ++run) {
    EventSim sim(g, /*seed=*/0xabcdef, chaos());
    sim.enable_trace(kLimit);
    drive(sim, g, /*script_seed=*/99, /*ops=*/4000);
    traces[run] = sim.trace();
  }
  ASSERT_FALSE(traces[0].empty());
  ASSERT_EQ(traces[0].size(), traces[1].size());
  for (std::size_t i = 0; i < traces[0].size(); ++i)
    ASSERT_EQ(traces[0][i], traces[1][i]) << "trace line " << i;
}

TEST(EventSimReplay, DifferentSeedMovesTheSchedule) {
  const Graph g = graph::connected_gnp(12, 0.3, 5);
  std::vector<std::string> traces[2];
  for (int run = 0; run < 2; ++run) {
    EventSim sim(g, /*seed=*/100 + run, chaos());
    sim.enable_trace(10000);
    drive(sim, g, 99, 2000);
    traces[run] = sim.trace();
  }
  EXPECT_NE(traces[0], traces[1]);
}

TEST(EventSimReplay, MidSimulationRerunReproducesTheSuffix) {
  const Graph g = graph::connected_gnp(10, 0.35, 6);
  constexpr int kPrefixOps = 1500;
  constexpr int kSuffixOps = 1500;
  // Run A: prefix + suffix in one life.
  EventSim a(g, 0x5eed, chaos());
  a.enable_trace(100000);
  drive(a, g, 7, kPrefixOps);
  const std::size_t cut = a.trace().size();
  drive(a, g, 8, kSuffixOps);
  // Run B: a fresh sim re-runs the prefix script, then continues with the
  // same suffix script — the suffix must match byte for byte.
  EventSim b(g, 0x5eed, chaos());
  b.enable_trace(100000);
  drive(b, g, 7, kPrefixOps);
  ASSERT_EQ(b.trace().size(), cut);
  drive(b, g, 8, kSuffixOps);
  ASSERT_EQ(a.trace().size(), b.trace().size());
  for (std::size_t i = cut; i < a.trace().size(); ++i)
    ASSERT_EQ(a.trace()[i], b.trace()[i]) << "suffix line " << i;
}

TEST(EventSimReplay, CountersAreReplayedExactly) {
  const Graph g = graph::connected_gnp(12, 0.3, 5);
  std::uint64_t tx[2], lost[2], dup[2], died[2];
  for (int run = 0; run < 2; ++run) {
    EventSim sim(g, 0xfeed, chaos());
    drive(sim, g, 13, 3000);
    tx[run] = sim.transmissions();
    lost[run] = sim.frames_lost();
    dup[run] = sim.frames_duplicated();
    died[run] = sim.frames_died_midflight();
  }
  EXPECT_EQ(tx[0], tx[1]);
  EXPECT_EQ(lost[0], lost[1]);
  EXPECT_EQ(dup[0], dup[1]);
  EXPECT_EQ(died[0], died[1]);
  EXPECT_GT(lost[0], 0u);  // the chaos model really exercised loss
  EXPECT_GT(dup[0], 0u);
}

// ---------------------------------------------------------------------------
// Fault-injection layer: frame corruption, node crash/recovery, scheduled
// faults, and lazy timer cancellation.
// ---------------------------------------------------------------------------

TEST(EventSimFaults, FullCorruptionFlagsEveryDeliveryWithOneFlippedBit) {
  Graph g = graph::from_edges(2, {{0, 1}});
  LinkModel m = perfect();
  m.corrupt = 1.0;
  EventSim sim(g, 7, m);
  sim.send(0, 0, 42);
  auto ev = sim.next();
  ASSERT_TRUE(ev.has_value());
  EXPECT_TRUE(ev->corrupted);
  // The damage model flips exactly one bit of the frame id (the CRC the
  // ARQ layers check is the flag, but the payload really is different).
  EXPECT_EQ(std::popcount(ev->frame_id ^ 42u), 1);
  EXPECT_EQ(sim.frames_corrupted(), 1u);
  EXPECT_EQ(sim.frames_delivered(), 1u);  // corrupt copies still arrive
}

TEST(EventSimFaults, CorruptProbabilityIsValidated) {
  Graph g = graph::cycle(3);
  LinkModel bad = perfect();
  bad.corrupt = 1.5;
  EXPECT_THROW(EventSim(g, 7, bad), std::invalid_argument);
}

TEST(EventSimFaults, CrashedNodeDropsSendsAtDeparture) {
  Graph g = graph::from_edges(2, {{0, 1}});
  EventSim sim(g, 7, perfect());
  sim.set_node_crashed(0, true);
  EXPECT_TRUE(sim.node_crashed(0));
  sim.send(0, 0, 1);
  EXPECT_FALSE(sim.next().has_value());
  EXPECT_EQ(sim.transmissions(), 1u);  // the send was really attempted
  EXPECT_EQ(sim.frames_crash_dropped(), 1u);
  EXPECT_EQ(sim.frames_lost(), 0u);  // crash drops are not channel loss
}

TEST(EventSimFaults, CrashedNodeDropsArrivalsAtDeliveryInstant) {
  Graph g = graph::from_edges(2, {{0, 1}});
  EventSim sim(g, 7, perfect());
  sim.send(0, 0, 1);             // in flight toward node 1
  sim.set_node_crashed(1, true);  // crashes before delivery
  EXPECT_FALSE(sim.next().has_value());
  EXPECT_EQ(sim.frames_crash_dropped(), 1u);
  // Recovery serves new frames again.
  sim.set_node_crashed(1, false);
  sim.send(0, 0, 2);
  auto ev = sim.next();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->frame_id, 2u);
}

TEST(EventSimFaults, RecoveryBumpsTheCrashEpochOncePerDownUpCycle) {
  Graph g = graph::cycle(3);
  EventSim sim(g, 7, perfect());
  EXPECT_EQ(sim.crash_epochs(1), 0u);
  sim.set_node_crashed(1, true);
  EXPECT_EQ(sim.crash_epochs(1), 0u);  // going down is not amnesia yet
  sim.set_node_crashed(1, false);
  EXPECT_EQ(sim.crash_epochs(1), 1u);
  sim.set_node_crashed(1, false);  // redundant up: no phantom epoch
  EXPECT_EQ(sim.crash_epochs(1), 1u);
  sim.set_node_crashed(1, true);
  sim.set_node_crashed(1, false);
  EXPECT_EQ(sim.crash_epochs(1), 2u);
}

TEST(EventSimFaults, ScheduledCrashWindowOpensAndClosesAtExactTimes) {
  Graph g = graph::from_edges(2, {{0, 1}});
  EventSim sim(g, 7, perfect());
  FaultAction crash;
  crash.kind = FaultAction::Kind::kCrash;
  crash.node = 1;
  FaultAction recover;
  recover.kind = FaultAction::Kind::kRecover;
  recover.node = 1;
  sim.schedule_fault(2, crash);    // window [2, 4) in virtual time
  sim.schedule_fault(4, recover);
  sim.send(0, 0, 1);  // arrives t=1: before the window — delivered
  auto a = sim.next();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->frame_id, 1u);
  sim.send(0, 0, 2);  // arrives t=2: the crash applies first — dropped
  EXPECT_FALSE(sim.next().has_value());
  EXPECT_EQ(sim.frames_crash_dropped(), 1u);
  EXPECT_EQ(sim.now(), 4u);  // the recover fault advanced the clock
  EXPECT_FALSE(sim.node_crashed(1));
  EXPECT_EQ(sim.crash_epochs(1), 1u);
  sim.send(0, 0, 3);  // after the window: delivered again
  auto c = sim.next();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->frame_id, 3u);
}

TEST(EventSimFaults, ScheduleFaultValidatesTargets) {
  Graph g = graph::cycle(3);
  EventSim sim(g, 7, perfect());
  FaultAction crash;
  crash.kind = FaultAction::Kind::kCrash;
  crash.node = 9;
  EXPECT_THROW(sim.schedule_fault(0, crash), std::invalid_argument);
  FaultAction brown;
  brown.kind = FaultAction::Kind::kLinkDown;
  brown.node = 0;
  brown.port = 7;
  EXPECT_THROW(sim.schedule_fault(0, brown), std::invalid_argument);
  FaultAction burst;
  burst.kind = FaultAction::Kind::kGlobalCorrupt;
  burst.corrupt = 2.0;
  EXPECT_THROW(sim.schedule_fault(0, burst), std::invalid_argument);
  EXPECT_THROW(sim.set_node_crashed(9, true), std::invalid_argument);
}

TEST(EventSimTimers, CancelledTimerIsConsumedSilently) {
  Graph g = graph::cycle(3);
  EventSim sim(g, 7, perfect());
  sim.set_timer(5, 77);
  sim.cancel_timer(77);
  EXPECT_FALSE(sim.next().has_value());
  EXPECT_EQ(sim.timers_cancelled(), 1u);
  // A fresh timer under a new id still fires.
  sim.set_timer(3, 78);
  auto ev = sim.next();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->timer_id, 78u);
}

// The satellite regression: mass lazy cancellation must not grow the heap
// — compaction keeps pending() bounded by a small constant multiple of
// the live events, however many stale ARQ timers a chaos run abandons.
TEST(EventSimTimers, PendingStaysBoundedUnderMassCancellation) {
  Graph g = graph::cycle(3);
  EventSim sim(g, 7, perfect());
  for (int i = 0; i < 8; ++i) sim.set_timer(1u << 20, 1000000 + i);  // live
  std::size_t max_pending = 0;
  for (std::uint64_t i = 0; i < 20000; ++i) {
    sim.set_timer(1000 + (i % 7), i);
    sim.cancel_timer(i);
    max_pending = std::max(max_pending, sim.pending());
  }
  EXPECT_LT(max_pending, 300u);  // ~2x the compaction threshold, not 20k
  // Every cancelled timer is eventually consumed or compacted, silently.
  std::size_t fired = 0;
  while (sim.next().has_value()) ++fired;
  EXPECT_EQ(fired, 8u);  // only the live timers ever surfaced
  EXPECT_EQ(sim.timers_cancelled(), 20000u);
}

/// The chaos drive: sends, timers, cancellations and scheduled faults all
/// drawn from one script stream — the fault-layer replay anchor.
void drive_faults(EventSim& sim, const Graph& g, std::uint64_t script_seed,
                  int ops) {
  util::Pcg32 script(script_seed);
  for (int i = 0; i < ops; ++i) {
    const NodeId v = script.next_below(g.num_nodes());
    const Port p = script.next_below(g.degree(v));
    switch (script.next_below(12)) {
      case 0:
        sim.set_timer(1 + script.next_below(16), i);
        break;
      case 1: {
        FaultAction a;
        a.kind = FaultAction::Kind::kCrash;
        a.node = v;
        sim.schedule_fault(script.next_below(8), a);
        break;
      }
      case 2: {
        FaultAction a;
        a.kind = FaultAction::Kind::kRecover;
        a.node = v;
        sim.schedule_fault(script.next_below(8), a);
        break;
      }
      case 3: {
        FaultAction a;
        a.kind = script.next_below(2) ? FaultAction::Kind::kLinkDown
                                      : FaultAction::Kind::kLinkUp;
        a.node = v;
        a.port = p;
        sim.schedule_fault(script.next_below(8), a);
        break;
      }
      case 4: {
        FaultAction a;
        a.kind = FaultAction::Kind::kGlobalCorrupt;
        a.corrupt = script.next_below(2) ? 0.5 : 0.0;
        sim.schedule_fault(script.next_below(8), a);
        break;
      }
      case 5:
        // May hit a queued, fired, or never-set id — all deterministic.
        sim.cancel_timer(script.next_below(static_cast<std::uint32_t>(i + 1)));
        break;
      case 6:
      case 7:
        sim.next();
        break;
      default:
        sim.send(v, p, i);
        break;
    }
  }
  while (sim.next().has_value()) {
  }
}

TEST(EventSimFaults, FaultScheduleReplayIsByteIdentical) {
  const Graph g = graph::connected_gnp(12, 0.3, 5);
  LinkModel m = chaos();
  m.corrupt = 0.1;
  std::vector<std::string> traces[2];
  std::uint64_t corrupted[2], crashed[2], cancelled[2], delivered[2];
  for (int run = 0; run < 2; ++run) {
    EventSim sim(g, /*seed=*/0xabcdef, m);
    sim.enable_trace(100000);
    drive_faults(sim, g, /*script_seed=*/99, /*ops=*/4000);
    traces[run] = sim.trace();
    corrupted[run] = sim.frames_corrupted();
    crashed[run] = sim.frames_crash_dropped();
    cancelled[run] = sim.timers_cancelled();
    delivered[run] = sim.frames_delivered();
  }
  ASSERT_FALSE(traces[0].empty());
  ASSERT_EQ(traces[0].size(), traces[1].size());
  for (std::size_t i = 0; i < traces[0].size(); ++i)
    ASSERT_EQ(traces[0][i], traces[1][i]) << "trace line " << i;
  EXPECT_EQ(corrupted[0], corrupted[1]);
  EXPECT_EQ(crashed[0], crashed[1]);
  EXPECT_EQ(cancelled[0], cancelled[1]);
  EXPECT_EQ(delivered[0], delivered[1]);
  EXPECT_GT(corrupted[0], 0u);  // the chaos regime really fired
  EXPECT_GT(crashed[0], 0u);
}

// The fault state is sparse: faults that hit some nodes and links leave
// every other one up with crash epoch 0, on a graph far larger than what
// they touched, and a link or node put back up reads exactly as before.
TEST(EventSimFaults, UntouchedEntitiesStayUpOnALargeGraph) {
  const NodeId n = 1 << 18;
  Graph g = graph::cycle(n);
  EventSim sim(g, 7, perfect());
  sim.set_node_crashed(5, true);
  sim.set_node_crashed(5, false);
  sim.set_node_crashed(n - 1, true);
  sim.set_node_crashed(1000, false);  // recovering an up node: no change
  sim.set_link_up(7, 0, false);
  sim.set_link_up(n - 2, 1, false);
  sim.set_link_up(9, 1, false);
  sim.set_link_up(9, 1, true);
  sim.schedule_fault(1, {FaultAction::Kind::kCrash, 40000});
  sim.schedule_fault(2, {FaultAction::Kind::kLinkDown, 60000, 1});
  sim.set_timer(3, 1);
  while (sim.next()) {
  }
  EXPECT_EQ(sim.crash_epochs(5), 1u);
  EXPECT_FALSE(sim.node_crashed(5));
  EXPECT_TRUE(sim.node_crashed(n - 1));
  EXPECT_TRUE(sim.node_crashed(40000));
  EXPECT_FALSE(sim.link_up(7, 0));
  EXPECT_FALSE(sim.link_up(n - 2, 1));
  EXPECT_FALSE(sim.link_up(60000, 1));
  EXPECT_TRUE(sim.link_up(9, 1));
  for (const NodeId v : {NodeId{0}, NodeId{4}, NodeId{6}, NodeId{1000},
                         NodeId{39999}, NodeId{123456}, n - 2}) {
    EXPECT_FALSE(sim.node_crashed(v)) << v;
    EXPECT_EQ(sim.crash_epochs(v), 0u) << v;
    EXPECT_TRUE(sim.link_up(v, 0)) << v;
    EXPECT_TRUE(sim.link_up(v, 1) || v == n - 2) << v;
  }
  EXPECT_TRUE(sim.link_up(7, 1));
  EXPECT_TRUE(sim.link_up(8, 0));
  // Range checks still hold without whole-graph tables.
  EXPECT_THROW(sim.node_crashed(n), std::invalid_argument);
  EXPECT_THROW(sim.crash_epochs(n), std::invalid_argument);
  EXPECT_THROW(sim.link_up(n, 0), std::invalid_argument);
  EXPECT_THROW(sim.link_up(0, 2), std::invalid_argument);
}

}  // namespace
}  // namespace uesr::net
