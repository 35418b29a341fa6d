// Stop-and-wait is the window-1, one-frame configuration of the one ARQ
// (net::WindowTransport via net::stop_and_wait).  These cases pin its
// contract: the exact max_retries + 1 budget, Karn backoff persistence,
// the fixed-RTO schedule, per-link RTO, stale frames, corruption, crash
// windows and option validation.  The suite keeps the ReliableTransport
// name it had when stop-and-wait was a transport class of its own.
#include "net/window.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "util/rng.h"

namespace uesr::net {
namespace {

using graph::Graph;
using graph::NodeId;
using graph::Port;

/// The stop-and-wait transport: window 1, one frame per message.
WindowTransport stop_and_wait_transport(const Graph& g, std::uint64_t seed,
                                        LinkModel m = {},
                                        ReliableOptions opts = {}) {
  return WindowTransport(g, seed, m, stop_and_wait(opts));
}

TEST(ReliableTransport, PerfectChannelIsOneDataOneAck) {
  Graph g = graph::from_edges(2, {{0, 1}});
  WindowTransport rt = stop_and_wait_transport(g, 3);
  WindowOutcome out = rt.send(0, 0);
  EXPECT_TRUE(out.delivered);
  EXPECT_TRUE(out.message_arrived);
  EXPECT_EQ(out.arrival.node, 1u);
  EXPECT_EQ(out.arrival.port, 0u);
  EXPECT_EQ(out.data_copies, 1u);
  EXPECT_EQ(out.ack_copies, 1u);
  EXPECT_EQ(rt.frames(), 2u);
}

TEST(ReliableTransport, RetransmitsThroughLossUntilAcked) {
  Graph g = graph::from_edges(2, {{0, 1}});
  LinkModel m;
  m.loss = 0.5;
  ReliableOptions opts;
  opts.max_retries = 64;  // generous: delivery near-certain
  int delivered = 0;
  std::uint64_t retransmissions = 0;
  for (int i = 0; i < 40; ++i) {
    WindowTransport rt =
        stop_and_wait_transport(g, /*seed=*/1000 + i, m, opts);
    WindowOutcome out = rt.send(0, 0);
    delivered += out.delivered;
    retransmissions += out.data_copies - 1;
    if (out.delivered) {
      EXPECT_TRUE(out.message_arrived);
    }
  }
  EXPECT_EQ(delivered, 40);      // P(fail) ~ 0.5^65 per side
  EXPECT_GT(retransmissions, 0u);  // loss really forced retries
}

TEST(ReliableTransport, BudgetExhaustionSpendsExactlyMaxRetriesPlusOne) {
  Graph g = graph::from_edges(2, {{0, 1}});
  LinkModel dead;
  dead.loss = 1.0;
  ReliableOptions opts;
  opts.max_retries = 5;
  WindowTransport rt = stop_and_wait_transport(g, 3, dead, opts);
  WindowOutcome out = rt.send(0, 0);
  EXPECT_FALSE(out.delivered);
  EXPECT_FALSE(out.message_arrived);
  EXPECT_EQ(out.data_copies, 6u);  // initial + 5 retries
  EXPECT_EQ(out.ack_copies, 0u);
}

TEST(ReliableTransport, ForwardDirectionDownFailsCleanly) {
  Graph g = graph::from_edges(2, {{0, 1}});
  ReliableOptions opts;
  opts.max_retries = 3;
  WindowTransport rt = stop_and_wait_transport(g, 3, {}, opts);
  rt.sim().set_link_up(0, 0, false);
  WindowOutcome out = rt.send(0, 0);
  EXPECT_FALSE(out.delivered);
  EXPECT_FALSE(out.message_arrived);
  EXPECT_EQ(out.data_copies, 4u);
}

// The two-generals gap made concrete: data crosses, every ack dies.  The
// sender must report not-delivered while the simulator's ground truth
// records the arrival — exactly the case that turns failure certificates
// into "uncertified after budget" one layer up.
TEST(ReliableTransport, AckDirectionDownArrivesButNeverConfirms) {
  Graph g = graph::from_edges(2, {{0, 1}});
  ReliableOptions opts;
  opts.max_retries = 3;
  WindowTransport rt = stop_and_wait_transport(g, 3, {}, opts);
  rt.sim().set_link_up(1, 0, false);  // kill the 1 -> 0 (ack) direction only
  WindowOutcome out = rt.send(0, 0);
  EXPECT_FALSE(out.delivered);
  EXPECT_TRUE(out.message_arrived);
  EXPECT_EQ(out.arrival.node, 1u);
  EXPECT_EQ(out.data_copies, 4u);
  EXPECT_EQ(out.ack_copies, 4u);  // the receiver acked every copy, in vain
}

TEST(ReliableTransport, DuplicationAloneCannotBreakExactlyOnce) {
  Graph g = graph::from_edges(2, {{0, 1}});
  LinkModel m;
  m.dup = 1.0;
  m.latency_min = 1;
  m.latency_max = 13;
  ReliableOptions opts;
  opts.rto = 64;  // > worst-case RTT: no spurious timeout retransmits
  // Floor the adaptive timeout there too: unfloored, the estimator would
  // converge to the mean RTT and time out on the 13-tick jitter tail,
  // which is allowed behaviour but not what this test is about.
  opts.rto_min = 64;
  WindowTransport rt = stop_and_wait_transport(g, 3, m, opts);
  for (int i = 0; i < 20; ++i) {
    WindowOutcome out = rt.send(0, 0);
    EXPECT_TRUE(out.delivered);
    EXPECT_EQ(out.arrival.node, 1u);
    // data_copies == 1: no loss, so never a retransmit; the channel's extra
    // copies are dups, not sends.
    EXPECT_EQ(out.data_copies, 1u);
  }
}

TEST(ReliableTransport, AdaptiveRtoConvergesOnCleanLink) {
  Graph g = graph::from_edges(2, {{0, 1}});
  WindowTransport rt = stop_and_wait_transport(g, 3);
  for (int i = 0; i < 16; ++i) {
    // The RTO the first copy is armed with.
    const SimTime first_rto = rt.estimator().rto();
    WindowOutcome out = rt.send(0, 0);
    ASSERT_TRUE(out.delivered);
    EXPECT_EQ(out.retransmits, 0u);
    EXPECT_EQ(out.rtt_samples, 1u);  // one clean Karn sample per transfer
    if (i == 0) {
      EXPECT_EQ(first_rto, 8u);  // seeded from ReliableOptions::rto
    }
  }
  EXPECT_EQ(rt.estimator().srtt(), 2u);  // unit latency each way
  // The working RTO tracked the measured RTT down from the initial 8.
  EXPECT_EQ(rt.estimator().rto(), 5u);
  EXPECT_EQ(rt.estimator().samples(), 16u);
}

TEST(ReliableTransport, KarnBackoffPersistsAcrossTransfersUntilSampled) {
  Graph g = graph::from_edges(2, {{0, 1}});
  ReliableOptions opts;
  opts.max_retries = 4;
  WindowTransport rt = stop_and_wait_transport(g, 3, {}, opts);
  rt.sim().set_link_up(0, 0, false);  // forward dead: timeouts only
  WindowOutcome failed = rt.send(0, 0);
  EXPECT_FALSE(failed.delivered);
  EXPECT_GT(failed.backoffs, 0u);
  EXPECT_EQ(failed.rtt_samples, 0u);  // ambiguous copies feed nothing
  const SimTime backed_off = rt.estimator().rto();
  EXPECT_GT(backed_off, opts.rto);
  rt.sim().set_link_up(0, 0, true);
  const SimTime healed_first_rto = rt.estimator().rto();
  WindowOutcome healed = rt.send(0, 0);
  EXPECT_TRUE(healed.delivered);
  // Karn: the backed-off timeout was still armed for the first copy after
  // healing; the clean sample then ended the backoff.
  EXPECT_EQ(healed_first_rto, backed_off);
  EXPECT_EQ(healed.rtt_samples, 1u);
  EXPECT_LT(rt.estimator().rto(), backed_off);
}

TEST(ReliableTransport, StaleFramesOfEarlierTransfersAreIgnored) {
  // High-jitter duplication leaves stragglers of transfer k in the queue
  // when transfer k+1 starts; they must not satisfy or poison it.
  Graph g = graph::connected_gnp(8, 0.4, 17);
  LinkModel m;
  m.dup = 0.8;
  m.loss = 0.3;
  m.latency_min = 1;
  m.latency_max = 40;
  ReliableOptions opts;
  opts.max_retries = 20;
  opts.rto = 4;
  WindowTransport rt = stop_and_wait_transport(g, 23, m, opts);
  util::Pcg32 walk(9);
  NodeId at = 0;
  int ok = 0;
  for (int i = 0; i < 200; ++i) {
    const Port out_port = walk.next_below(g.degree(at));
    WindowOutcome out = rt.send(at, out_port);
    if (out.delivered) {
      // The arrival must be the genuine far end of the edge we sent on —
      // never a stale frame's endpoint.
      const graph::HalfEdge far = g.rotate(at, out_port);
      ASSERT_EQ(out.arrival.node, far.node);
      ASSERT_EQ(out.arrival.port, far.port);
      at = out.arrival.node;
      ++ok;
    }
  }
  EXPECT_GT(ok, 150);  // generous budget: most transfers confirm
}

TEST(ReliableTransport, BackoffDeterministicAcrossRuns) {
  Graph g = graph::from_edges(2, {{0, 1}});
  LinkModel m;
  m.loss = 0.7;
  ReliableOptions opts;
  opts.max_retries = 10;
  std::uint64_t frames[2];
  bool delivered[2];
  for (int run = 0; run < 2; ++run) {
    WindowTransport rt =
        stop_and_wait_transport(g, /*seed=*/0xbeef, m, opts);
    WindowOutcome out = rt.send(0, 0);
    frames[run] = rt.frames();
    delivered[run] = out.delivered;
  }
  EXPECT_EQ(frames[0], frames[1]);
  EXPECT_EQ(delivered[0], delivered[1]);
}

TEST(ReliableTransport, FullCorruptionDegradesToLossAndSpendsTheBudget) {
  Graph g = graph::from_edges(2, {{0, 1}});
  LinkModel m;
  m.corrupt = 1.0;  // every copy arrives, none passes the CRC
  ReliableOptions opts;
  opts.max_retries = 5;
  WindowTransport rt = stop_and_wait_transport(g, 3, m, opts);
  WindowOutcome out = rt.send(0, 0);
  EXPECT_FALSE(out.delivered);
  EXPECT_FALSE(out.message_arrived);  // dropped unprocessed — never "arrived"
  EXPECT_EQ(out.data_copies, 6u);
  EXPECT_EQ(out.corrupt_drops, 6u);  // each copy was rejected on arrival
  EXPECT_EQ(out.ack_copies, 0u);     // a rejected frame is never acked
  EXPECT_EQ(rt.sim().frames_corrupted(), 6u);
}

TEST(ReliableTransport, ModerateCorruptionIsRecoveredByRetransmission) {
  Graph g = graph::from_edges(2, {{0, 1}});
  LinkModel m;
  m.corrupt = 0.3;
  ReliableOptions opts;
  opts.max_retries = 64;
  int delivered = 0;
  std::uint64_t drops = 0;
  for (int i = 0; i < 40; ++i) {
    WindowTransport rt =
        stop_and_wait_transport(g, /*seed=*/500 + i, m, opts);
    WindowOutcome out = rt.send(0, 0);
    delivered += out.delivered;
    drops += out.corrupt_drops;
  }
  EXPECT_EQ(delivered, 40);  // corruption is just loss to the protocol
  EXPECT_GT(drops, 0u);      // and it really happened
}

TEST(ReliableTransport, ReceiverCrashWindowNeverDoubleDelivers) {
  // The amnesia contract for stop-and-wait: dedup is by globally-unique
  // transfer id (durable), so a receiver that crashes and recovers
  // mid-transfer costs retries, never a second processing.  Observable
  // here as: every outcome is still exactly delivered-or-ignorant, and
  // crash drops account for the frames the down window swallowed.
  Graph g = graph::from_edges(2, {{0, 1}});
  ReliableOptions opts;
  opts.max_retries = 32;
  WindowTransport rt = stop_and_wait_transport(g, 3, {}, opts);
  FaultAction crash;
  crash.kind = FaultAction::Kind::kCrash;
  crash.node = 1;
  FaultAction recover;
  recover.kind = FaultAction::Kind::kRecover;
  recover.node = 1;
  rt.sim().schedule_fault(1, crash);    // swallow the first copies
  rt.sim().schedule_fault(40, recover);
  WindowOutcome out = rt.send(0, 0);
  EXPECT_TRUE(out.delivered);
  EXPECT_GT(out.retransmits, 0u);  // the window really cost retries
  EXPECT_GT(rt.sim().frames_crash_dropped(), 0u);
  EXPECT_EQ(rt.sim().crash_epochs(1), 1u);
}

TEST(ReliableTransport, ValidatesOptions) {
  Graph g = graph::cycle(3);
  ReliableOptions zero_rto;
  zero_rto.rto = 0;
  EXPECT_THROW(stop_and_wait_transport(g, 3, {}, zero_rto),
               std::invalid_argument);
  ReliableOptions inverted;
  inverted.rto = 100;
  inverted.rto_max = 10;
  EXPECT_THROW(stop_and_wait_transport(g, 3, {}, inverted),
               std::invalid_argument);
}

}  // namespace
}  // namespace uesr::net
