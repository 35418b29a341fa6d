#include "net/window.h"

#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.h"
#include "net/rto.h"
#include "util/rng.h"

namespace uesr::net {
namespace {

using graph::Graph;
using graph::NodeId;
using graph::Port;

// ---------------------------------------------------------------------------
// RtoEstimator (net/rto.h): the Jacobson/Karn state both ARQs share.
// ---------------------------------------------------------------------------

TEST(RtoEstimator, FirstSampleSeedsSrttAndRto) {
  RtoOptions opts;  // initial 8, min 4, max 1024, granularity 2
  RtoEstimator est(opts);
  EXPECT_EQ(est.rto(), 8u);
  EXPECT_EQ(est.samples(), 0u);
  est.sample(10);
  // RFC 6298 seeding: SRTT = R, RTTVAR = R/2, RTO = SRTT + max(G, 4*RTTVAR).
  EXPECT_EQ(est.srtt(), 10u);
  EXPECT_EQ(est.rto(), 30u);
  EXPECT_EQ(est.samples(), 1u);
}

TEST(RtoEstimator, ConstantRttConvergesTight) {
  RtoEstimator est(RtoOptions{});
  for (int i = 0; i < 64; ++i) est.sample(2);
  EXPECT_EQ(est.srtt(), 2u);
  // The integer recurrence parks rttvar4 at 3 on a constant stream (the
  // decay term 3 >> 2 truncates to 0), so rto settles at srtt + 3 = 5 —
  // one tick above the granularity floor, still spuriousness-free.
  EXPECT_EQ(est.rto(), 5u);
}

TEST(RtoEstimator, BackoffDoublesAndClampsAtMax) {
  RtoOptions opts;
  opts.initial = 8;
  opts.max = 50;
  RtoEstimator est(opts);
  est.backoff();
  EXPECT_EQ(est.rto(), 16u);
  est.backoff();
  EXPECT_EQ(est.rto(), 32u);
  est.backoff();
  EXPECT_EQ(est.rto(), 50u);  // clamped
  est.backoff();
  EXPECT_EQ(est.rto(), 50u);
}

TEST(RtoEstimator, BackoffPersistsUntilFreshSample) {
  RtoEstimator est(RtoOptions{});
  est.sample(2);
  const SimTime calm = est.rto();
  est.backoff();
  est.backoff();
  EXPECT_GT(est.rto(), calm);  // Karn: stays backed off...
  est.sample(2);
  EXPECT_LE(est.rto(), calm);  // ...until an unambiguous sample lands.
}

TEST(RtoEstimator, ValidatesOptions) {
  RtoOptions bad;
  bad.initial = 0;
  EXPECT_THROW(RtoEstimator{bad}, std::invalid_argument);
  bad = {};
  bad.min = 0;
  EXPECT_THROW(RtoEstimator{bad}, std::invalid_argument);
  bad = {};
  bad.max = 2;  // < initial
  EXPECT_THROW(RtoEstimator{bad}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// WindowTransport semantics.
// ---------------------------------------------------------------------------

TEST(WindowTransport, PerfectChannelSendsEachFrameOnce) {
  Graph g = graph::from_edges(2, {{0, 1}});
  WindowOptions opts;
  opts.window = 8;
  opts.frames_per_message = 8;
  WindowTransport wt(g, 3, {}, opts);
  WindowOutcome out = wt.send(0, 0);
  EXPECT_TRUE(out.delivered);
  EXPECT_TRUE(out.message_arrived);
  EXPECT_EQ(out.arrival.node, 1u);
  EXPECT_EQ(out.arrival.port, 0u);
  EXPECT_EQ(out.data_copies, 8u);
  EXPECT_EQ(out.ack_copies, 8u);
  EXPECT_EQ(out.retransmits, 0u);
  EXPECT_EQ(wt.frames(), 16u);
}

TEST(WindowTransport, PipelineBeatsStopAndWaitPacingAtLossZero) {
  // The whole point of the window: on a perfect unit-latency link a full
  // window moves F frames in ~one RTT, while window = 1 pays F RTTs.
  Graph g = graph::from_edges(2, {{0, 1}});
  WindowOptions pipelined;
  pipelined.window = 8;
  pipelined.frames_per_message = 8;
  WindowOptions paced = pipelined;
  paced.window = 1;
  WindowTransport fast(g, 3, {}, pipelined);
  WindowTransport slow(g, 3, {}, paced);
  const WindowOutcome a = fast.send(0, 0);
  const WindowOutcome b = slow.send(0, 0);
  ASSERT_TRUE(a.delivered);
  ASSERT_TRUE(b.delivered);
  EXPECT_EQ(a.elapsed, 2u);       // launch burst, one RTT
  EXPECT_EQ(b.elapsed, 8u * 2u);  // one frame per RTT
}

TEST(WindowTransport, DeliveredImpliesArrivedUnderChaos) {
  // Soundness under the full fault menu: whenever the sender claims
  // delivery, the receiver really holds every frame.
  Graph g = graph::connected_gnp(8, 0.4, 17);
  LinkModel m;
  m.loss = 0.3;
  m.dup = 0.5;
  m.latency_min = 1;
  m.latency_max = 20;
  WindowOptions opts;
  opts.window = 4;
  opts.frames_per_message = 6;
  opts.max_retries = 20;
  WindowTransport wt(g, 23, m, opts);
  util::Pcg32 walk(9);
  NodeId at = 0;
  int delivered = 0;
  for (int i = 0; i < 120; ++i) {
    const Port out_port = walk.next_below(g.degree(at));
    WindowOutcome out = wt.send(at, out_port);
    if (out.delivered) {
      EXPECT_TRUE(out.message_arrived);
      const graph::HalfEdge far = g.rotate(at, out_port);
      ASSERT_EQ(out.arrival.node, far.node);
      ASSERT_EQ(out.arrival.port, far.port);
      at = out.arrival.node;
      ++delivered;
    }
  }
  EXPECT_GT(delivered, 0);
  EXPECT_GT(wt.total_retransmits(), 0u);
}

TEST(WindowTransport, DuplicationAloneCannotBreakExactlyOnce) {
  Graph g = graph::from_edges(2, {{0, 1}});
  LinkModel m;
  m.dup = 1.0;
  m.latency_min = 1;
  m.latency_max = 13;
  WindowOptions opts;
  opts.window = 4;
  opts.frames_per_message = 8;
  opts.rto.initial = 64;  // > worst-case RTT (26 ticks)...
  opts.rto.min = 64;      // ...and the adaptive timeout never drops below
  WindowTransport wt(g, 3, m, opts);
  for (int i = 0; i < 20; ++i) {
    WindowOutcome out = wt.send(0, 0);
    EXPECT_TRUE(out.delivered);
    // No loss, so never a retransmit: every extra copy on the wire is the
    // channel's dup, and the receiver's bitmap absorbed all of them.
    EXPECT_EQ(out.data_copies, 8u);
    EXPECT_EQ(out.retransmits, 0u);
  }
}

TEST(WindowTransport, DeadChannelSpendsEveryFrameBudgetThenDies) {
  Graph g = graph::from_edges(2, {{0, 1}});
  LinkModel dead;
  dead.loss = 1.0;
  WindowOptions opts;
  opts.window = 4;
  opts.frames_per_message = 8;
  opts.max_retries = 3;
  WindowTransport wt(g, 3, dead, opts);
  WindowOutcome out = wt.send(0, 0);
  EXPECT_FALSE(out.delivered);
  EXPECT_FALSE(out.message_arrived);
  EXPECT_EQ(out.ack_copies, 0u);
  // All 4 in-flight frames retransmit in lockstep until the first one's
  // budget dies: window * (max_retries + 1) DATA copies.
  EXPECT_EQ(out.data_copies, 4u * 4u);
  EXPECT_EQ(out.retransmits, 4u * 3u);
}

TEST(WindowTransport, AckDirectionDownArrivesButNeverConfirms) {
  // The two-generals gap at window scale: all data crosses, every ack
  // dies, the sender must claim nothing.
  Graph g = graph::from_edges(2, {{0, 1}});
  WindowOptions opts;
  opts.window = 4;
  opts.frames_per_message = 4;
  opts.max_retries = 3;
  WindowTransport wt(g, 3, {}, opts);
  wt.sim().set_link_up(1, 0, false);  // kill only the ack direction
  WindowOutcome out = wt.send(0, 0);
  EXPECT_FALSE(out.delivered);
  EXPECT_TRUE(out.message_arrived);
  EXPECT_EQ(out.arrival.node, 1u);
  EXPECT_GT(out.ack_copies, 0u);  // acked in vain
}

TEST(WindowTransport, AdaptiveRtoConvergesOnCleanLink) {
  Graph g = graph::from_edges(2, {{0, 1}});
  WindowOptions opts;
  opts.window = 2;
  opts.frames_per_message = 4;
  WindowTransport wt(g, 3, {}, opts);
  for (int i = 0; i < 16; ++i) {
    WindowOutcome out = wt.send(0, 0);
    ASSERT_TRUE(out.delivered);
    EXPECT_EQ(out.retransmits, 0u);
    EXPECT_EQ(out.rtt_samples, 4u);  // every frame a clean Karn sample
  }
  EXPECT_EQ(wt.estimator().srtt(), 2u);  // unit latency each way
  EXPECT_EQ(wt.estimator().rto(), 5u);   // srtt + settled variance term
  EXPECT_EQ(wt.estimator().samples(), 16u * 4u);
}

TEST(WindowTransport, KarnBackoffThenRecovery) {
  Graph g = graph::from_edges(2, {{0, 1}});
  WindowOptions opts;
  opts.window = 2;
  opts.frames_per_message = 4;
  opts.max_retries = 4;
  WindowTransport wt(g, 3, {}, opts);
  wt.sim().set_link_up(0, 0, false);  // forward dead: timeouts only
  WindowOutcome failed = wt.send(0, 0);
  EXPECT_FALSE(failed.delivered);
  EXPECT_GT(failed.backoffs, 0u);
  // Karn: every copy was ambiguous or lost — no samples, and the backed-off
  // RTO persists past the failed transfer.
  EXPECT_EQ(failed.rtt_samples, 0u);
  const SimTime backed_off = wt.estimator().rto();
  EXPECT_GT(backed_off, wt.estimator().options().initial);
  wt.sim().set_link_up(0, 0, true);
  WindowOutcome healed = wt.send(0, 0);
  EXPECT_TRUE(healed.delivered);
  EXPECT_EQ(healed.rtt_samples, 4u);
  EXPECT_LT(wt.estimator().rto(), backed_off);  // fresh samples recover
}

TEST(WindowTransport, DeterministicAcrossIdenticalRuns) {
  const Graph g = graph::connected_gnp(10, 0.35, 6);
  LinkModel m;
  m.loss = 0.25;
  m.dup = 0.25;
  m.latency_min = 1;
  m.latency_max = 9;
  WindowOptions opts;
  opts.window = 4;
  opts.frames_per_message = 5;
  opts.max_retries = 10;
  std::vector<std::uint64_t> frames(2);
  std::vector<std::uint64_t> retx(2);
  std::vector<int> delivered(2, 0);
  for (int run = 0; run < 2; ++run) {
    WindowTransport wt(g, 0x5eed, m, opts);
    util::Pcg32 walk(7);
    NodeId at = 0;
    for (int i = 0; i < 100; ++i) {
      const Port p = walk.next_below(g.degree(at));
      WindowOutcome out = wt.send(at, p);
      if (out.delivered) {
        at = out.arrival.node;
        ++delivered[run];
      }
    }
    frames[run] = wt.frames();
    retx[run] = wt.total_retransmits();
  }
  EXPECT_EQ(frames[0], frames[1]);
  EXPECT_EQ(retx[0], retx[1]);
  EXPECT_EQ(delivered[0], delivered[1]);
}

TEST(WindowTransport, ValidatesOptions) {
  Graph g = graph::from_edges(2, {{0, 1}});
  WindowOptions opts;
  opts.window = 0;
  EXPECT_THROW(WindowTransport(g, 1, {}, opts), std::invalid_argument);
  opts = {};
  opts.frames_per_message = 0;
  EXPECT_THROW(WindowTransport(g, 1, {}, opts), std::invalid_argument);
  opts = {};
  opts.frames_per_message = 1u << 15;
  EXPECT_THROW(WindowTransport(g, 1, {}, opts), std::invalid_argument);
  opts = {};
  opts.max_retries = 0xffff;
  EXPECT_THROW(WindowTransport(g, 1, {}, opts), std::invalid_argument);
}

// The replay-regression gate for the new frame types: a 10k-event chaos
// trace driven entirely through selective-repeat transfers must replay
// byte-identically — the adaptation consumes no randomness, so the
// schedule is a pure function of (graph, seed, call sequence).
TEST(WindowTransport, FullCorruptionDegradesToLossAndDiesOnBudget) {
  Graph g = graph::from_edges(2, {{0, 1}});
  LinkModel m;
  m.corrupt = 1.0;
  WindowOptions opts;
  opts.window = 4;
  opts.frames_per_message = 4;
  opts.max_retries = 3;
  WindowTransport wt(g, 3, m, opts);
  WindowOutcome out = wt.send(0, 0);
  EXPECT_FALSE(out.delivered);
  EXPECT_FALSE(out.message_arrived);
  EXPECT_GT(out.corrupt_drops, 0u);
  EXPECT_EQ(out.ack_copies, 0u);  // no frame ever passed the CRC
}

TEST(WindowTransport, ModerateCorruptionIsRecoveredByRetransmission) {
  Graph g = graph::from_edges(2, {{0, 1}});
  LinkModel m;
  m.corrupt = 0.25;
  WindowOptions opts;
  opts.window = 4;
  opts.frames_per_message = 8;
  opts.max_retries = 64;
  int delivered = 0;
  std::uint64_t drops = 0;
  for (int i = 0; i < 30; ++i) {
    WindowTransport wt(g, /*seed=*/700 + i, m, opts);
    WindowOutcome out = wt.send(0, 0);
    delivered += out.delivered;
    drops += out.corrupt_drops;
    if (out.delivered) {
      EXPECT_TRUE(out.message_arrived);
    }
  }
  EXPECT_EQ(delivered, 30);
  EXPECT_GT(drops, 0u);
}

TEST(WindowTransport, ReceiverCrashAmnesiaNeverFalselyDelivers) {
  // The reneging discipline under fire: crash windows wipe the receiver's
  // out-of-order buffer mid-transfer.  Whatever happens, `delivered` must
  // imply the receiver really holds the whole message (the §2.12 soundness
  // half).  Liveness is the documented cost: the sender never resends a
  // selectively-acked frame, so a wiped bitmap usually strands the
  // transfer in the two-generals gap until the budget kills it.
  Graph g = graph::from_edges(2, {{0, 1}});
  LinkModel m;
  m.loss = 0.15;
  m.latency_min = 1;
  m.latency_max = 4;
  WindowOptions opts;
  opts.window = 4;
  opts.frames_per_message = 12;
  opts.max_retries = 64;
  int delivered = 0;
  std::uint64_t resets = 0;
  for (int i = 0; i < 40; ++i) {
    WindowTransport wt(g, /*seed=*/900 + i, m, opts);
    FaultAction crash;
    crash.kind = FaultAction::Kind::kCrash;
    crash.node = 1;
    FaultAction recover;
    recover.kind = FaultAction::Kind::kRecover;
    recover.node = 1;
    // Two crash windows inside the transfer's natural lifetime.
    wt.sim().schedule_fault(3, crash);
    wt.sim().schedule_fault(9, recover);
    wt.sim().schedule_fault(20, crash);
    wt.sim().schedule_fault(28, recover);
    WindowOutcome out = wt.send(0, 0);
    if (out.delivered) {
      ++delivered;
      EXPECT_TRUE(out.message_arrived) << "seed " << 900 + i;
    }
    resets += out.receiver_resets;
  }
  EXPECT_GT(delivered, 0);   // a window that misses the bitmap still lands
  EXPECT_LT(delivered, 40);  // and reneging really costs transfers
  EXPECT_GT(resets, 0u);     // the wipe really happened mid-transfer
}

TEST(WindowTransportReplay, TenThousandEventTraceIsByteIdentical) {
  const Graph g = graph::connected_gnp(12, 0.3, 5);
  LinkModel m;
  m.loss = 0.3;
  m.dup = 0.3;
  m.latency_min = 1;
  m.latency_max = 13;
  WindowOptions opts;
  opts.window = 4;
  opts.frames_per_message = 6;
  opts.max_retries = 12;
  constexpr std::size_t kLimit = 10000;
  std::vector<std::string> traces[2];
  for (int run = 0; run < 2; ++run) {
    WindowTransport wt(g, 0xabcdef, m, opts);
    wt.sim().enable_trace(kLimit);
    util::Pcg32 walk(99);
    NodeId at = 0;
    while (wt.sim().trace().size() < kLimit) {
      const Port p = walk.next_below(g.degree(at));
      WindowOutcome out = wt.send(at, p);
      if (out.delivered) at = out.arrival.node;
    }
    traces[run] = wt.sim().trace();
  }
  ASSERT_EQ(traces[0].size(), kLimit);
  ASSERT_EQ(traces[1].size(), kLimit);
  for (std::size_t i = 0; i < kLimit; ++i)
    ASSERT_EQ(traces[0][i], traces[1][i]) << "trace line " << i;
}

}  // namespace
}  // namespace uesr::net
