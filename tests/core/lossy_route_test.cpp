// Certificate soundness of Algorithm Route over lossy channels
// (DESIGN.md §2.10): under every adversarial channel regime, a delivery
// verdict is only returned when t is truly reachable, a failure
// certificate is never emitted while a path exists, and loss degrades
// outcomes to kUncertified — never to a wrong certificate.
#include "core/lossy_route.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/route.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace uesr::core {
namespace {

using explore::ReducedGraph;
using explore::reduce_to_cubic;
using graph::Graph;
using graph::NodeId;
using graph::Port;

struct Fixture {
  Graph original;
  ReducedGraph net;
  std::shared_ptr<const explore::ExplorationSequence> seq;

  explicit Fixture(Graph g, std::uint64_t seed = 0x5eed0001)
      : original(std::move(g)),
        net(reduce_to_cubic(original)),
        seq(explore::standard_ues(
            net.cubic.num_nodes() == 0 ? 1 : net.cubic.num_nodes(), seed)) {}
};

/// Two connected gnp halves with no edge between them: cross-half pairs
/// are ground-truth unreachable.
Graph split_graph(NodeId half, double p, std::uint64_t seed) {
  const Graph a = graph::connected_gnp(half, p, seed);
  const Graph b = graph::connected_gnp(half, p, seed + 1);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (const Graph* g : {&a, &b}) {
    const NodeId base = g == &b ? half : 0;
    for (NodeId v = 0; v < g->num_nodes(); ++v)
      for (Port q = 0; q < g->degree(v); ++q) {
        const graph::HalfEdge far = g->rotate(v, q);
        if (far.node > v || (far.node == v && far.port >= q))
          edges.emplace_back(base + v, base + far.node);
      }
  }
  return graph::from_edges(2 * half, edges);
}

/// Soundness gate shared by all the regime sweeps: run every ordered pair
/// and check the verdict against ground-truth reachability.
struct RegimeTally {
  int delivered = 0;
  int certified = 0;
  int uncertified = 0;
};

RegimeTally sweep_all_pairs(const Fixture& fx, const LossyRouteOptions& base,
                            std::uint64_t seed_salt) {
  const auto comp = graph::connected_components(fx.original);
  RegimeTally tally;
  for (NodeId s = 0; s < fx.original.num_nodes(); ++s) {
    for (NodeId t = 0; t < fx.original.num_nodes(); ++t) {
      if (s == t) continue;
      LossyRouteOptions options = base;
      options.net_seed = util::counter_hash(seed_salt, s * 1000 + t);
      LossyRouteSession session(fx.net, *fx.seq, s, t, options);
      const LossyVerdict v = session.run();
      const bool reachable = comp[s] == comp[t];
      switch (v) {
        case LossyVerdict::kDelivered:
          EXPECT_TRUE(reachable) << "false delivery cert s=" << s
                                 << " t=" << t;
          ++tally.delivered;
          break;
        case LossyVerdict::kFailureCertified:
          EXPECT_FALSE(reachable)
              << "failure cert with a live path s=" << s << " t=" << t;
          ++tally.certified;
          break;
        case LossyVerdict::kUncertified:
          ++tally.uncertified;
          break;
        case LossyVerdict::kInProgress:
          ADD_FAILURE() << "run() returned kInProgress";
          break;
      }
    }
  }
  return tally;
}

// ---------------------------------------------------------------------------
// Perfect-channel equivalence: at loss = 0 the lossy session reproduces the
// RouteSession verdict and walk length exactly.
// ---------------------------------------------------------------------------

TEST(LossyRouteSession, PerfectChannelMatchesRouteSessionEverywhere) {
  Fixture fx(split_graph(6, 0.5, 7));
  for (NodeId s = 0; s < fx.original.num_nodes(); ++s) {
    for (NodeId t = 0; t < fx.original.num_nodes(); ++t) {
      if (s == t) continue;
      RouteSession perfect(fx.net, *fx.seq, s, t);
      while (!perfect.finished()) perfect.step();
      LossyRouteSession lossy(fx.net, *fx.seq, s, t);
      const LossyVerdict v = lossy.run();
      if (perfect.status() == net::Status::kSuccess) {
        EXPECT_EQ(v, LossyVerdict::kDelivered);
      } else {
        EXPECT_EQ(v, LossyVerdict::kFailureCertified);
      }
      EXPECT_EQ(lossy.hops(), perfect.transmissions());
      EXPECT_EQ(lossy.target_reached(), perfect.target_reached());
      // Stop-and-wait on a perfect channel: one DATA + one ACK per hop.
      EXPECT_EQ(lossy.wire_frames(), 2 * lossy.hops());
    }
  }
}

// ---------------------------------------------------------------------------
// Adversarial regimes (the ISSUE soundness gate).
// ---------------------------------------------------------------------------

TEST(LossyRouteSoundness, DuplicationOnlyRegime) {
  Fixture fx(split_graph(5, 0.6, 11));
  LossyRouteOptions options;
  options.link.dup = 1.0;  // every frame doubled, nothing lost
  options.link.latency_min = 1;
  options.link.latency_max = 11;  // dups overtake and straggle
  const RegimeTally tally = sweep_all_pairs(fx, options, 0xd0b1e);
  // No loss: every transfer completes, so every pair gets a real verdict
  // and it must match reachability exactly.
  EXPECT_EQ(tally.uncertified, 0);
  EXPECT_GT(tally.delivered, 0);
  EXPECT_GT(tally.certified, 0);
}

TEST(LossyRouteSoundness, LossOnlyRegime) {
  Fixture fx(split_graph(5, 0.6, 13));
  LossyRouteOptions options;
  options.link.loss = 0.3;
  options.reliable.max_retries = 2;  // tight budget: uncertified happens
  options.reliable.rto = 4;
  const RegimeTally tally = sweep_all_pairs(fx, options, 0x1055);
  EXPECT_GT(tally.uncertified, 0);  // the budget really bit
  EXPECT_GT(tally.delivered, 0);    // and some walks still completed
}

TEST(LossyRouteSoundness, LossOnlyGenerousBudgetStillSound) {
  Fixture fx(split_graph(4, 0.7, 17));
  LossyRouteOptions options;
  options.link.loss = 0.25;
  options.reliable.max_retries = 40;  // delivery of each hop near-certain
  options.reliable.rto = 2;
  const RegimeTally tally = sweep_all_pairs(fx, options, 0x9e9e);
  EXPECT_GT(tally.delivered, 0);
  EXPECT_GT(tally.certified, 0);  // failure certs survive loss, soundly
}

TEST(LossyRouteSoundness, OneSidedLinkRegimeNeverFalselyCertifies) {
  // No loss, no duplication — but some cubic-graph directions are down.
  // Data or acks silently vanish on those directions; the session may only
  // degrade to kUncertified, never to a wrong certificate.
  Fixture fx(split_graph(5, 0.6, 19));
  const auto comp = graph::connected_components(fx.original);
  const Graph& cubic = fx.net.cubic;
  util::Pcg32 flips(0x0f1e);
  int uncertified = 0, verdicts = 0;
  for (NodeId s = 0; s < fx.original.num_nodes(); ++s) {
    for (NodeId t = 0; t < fx.original.num_nodes(); ++t) {
      if (s == t) continue;
      LossyRouteOptions options;
      options.reliable.max_retries = 2;
      options.reliable.rto = 4;
      options.net_seed = util::counter_hash(0x51de, s * 1000 + t);
      LossyRouteSession session(fx.net, *fx.seq, s, t, options);
      // Down ~15% of directed half-edges, one side only.
      for (NodeId v = 0; v < cubic.num_nodes(); ++v)
        for (Port q = 0; q < cubic.degree(v); ++q)
          if (flips.next_below(100) < 15)
            session.transport().sim().set_link_up(v, q, false);
      const LossyVerdict v = session.run();
      const bool reachable = comp[s] == comp[t];
      if (v == LossyVerdict::kDelivered) {
        EXPECT_TRUE(reachable);
      }
      if (v == LossyVerdict::kFailureCertified) {
        EXPECT_FALSE(reachable);
      }
      uncertified += v == LossyVerdict::kUncertified;
      verdicts += v != LossyVerdict::kUncertified;
    }
  }
  EXPECT_GT(uncertified, 0);  // dead directions really blocked walks
  EXPECT_GT(verdicts, 0);     // and some sessions still concluded
}

// ---------------------------------------------------------------------------
// Plumbing.
// ---------------------------------------------------------------------------

TEST(LossyRouteSession, BroadcastRunsUnderLoss) {
  Fixture fx(graph::connected_gnp(8, 0.4, 23));
  LossyRouteOptions options;
  options.link.loss = 0.1;
  options.reliable.max_retries = 30;
  options.reliable.rto = 2;
  LossyRouteSession session(fx.net, *fx.seq, 0, net::kNoTarget, options);
  const LossyVerdict v = session.run();
  // A completed broadcast exhausts the sequence and rewinds: that is the
  // kFailureCertified shape (status kFailure at s) — or the budget spends.
  EXPECT_TRUE(v == LossyVerdict::kFailureCertified ||
              v == LossyVerdict::kUncertified);
}

TEST(LossyRouteSession, UncertifiedSessionsMayStillHaveDelivered) {
  // target_reached() is ground truth for the two-generals gap: across
  // seeds, some uncertified sessions reached t before the budget died.
  Fixture fx(graph::connected_gnp(6, 0.5, 29));
  int uncertified_but_reached = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    LossyRouteOptions options;
    options.link.loss = 0.1;
    options.reliable.max_retries = 2;
    options.reliable.rto = 4;
    options.net_seed = util::counter_hash(0x2be1, seed);
    LossyRouteSession session(fx.net, *fx.seq, 0, 5, options);
    session.run();
    if (session.uncertified() && session.target_reached())
      ++uncertified_but_reached;
  }
  EXPECT_GT(uncertified_but_reached, 0);
}

TEST(LossyRouteSession, SameSeedSameVerdictAndFrames) {
  Fixture fx(graph::connected_gnp(9, 0.4, 31));
  LossyVerdict verdicts[2];
  std::uint64_t frames[2];
  for (int run = 0; run < 2; ++run) {
    LossyRouteOptions options;
    options.link.loss = 0.2;
    options.link.dup = 0.1;
    options.reliable.rto = 4;
    LossyRouteSession session(fx.net, *fx.seq, 1, 7, options);
    verdicts[run] = session.run();
    frames[run] = session.wire_frames();
  }
  EXPECT_EQ(verdicts[0], verdicts[1]);
  EXPECT_EQ(frames[0], frames[1]);
}

TEST(LossyRouteSession, ValidatesEndpoints) {
  Fixture fx(graph::cycle(4));
  EXPECT_THROW(LossyRouteSession(fx.net, *fx.seq, 99, 0, {}),
               std::invalid_argument);
  EXPECT_THROW(LossyRouteSession(fx.net, *fx.seq, 0, 99, {}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The selective-repeat seam (PR 7): same walk, pipelined wire.
// ---------------------------------------------------------------------------

TEST(LossyRouteSelectiveRepeat, PerfectChannelMatchesStopAndWaitWalk) {
  Fixture fx(split_graph(4, 0.7, 7));
  for (NodeId s = 0; s < fx.original.num_nodes(); ++s) {
    for (NodeId t = 0; t < fx.original.num_nodes(); ++t) {
      if (s == t) continue;
      LossyRouteSession sw(fx.net, *fx.seq, s, t, {});
      LossyRouteOptions sr_options;
      sr_options.arq = ArqKind::kSelectiveRepeat;
      sr_options.window.frames_per_message = 4;
      LossyRouteSession sr(fx.net, *fx.seq, s, t, sr_options);
      EXPECT_EQ(sw.run(), sr.run());
      // The walk is the routing layer's: identical hop for hop; only the
      // framing differs (F DATA + F ACK per hop at loss 0).
      EXPECT_EQ(sw.hops(), sr.hops());
      EXPECT_EQ(sr.wire_frames(), 2 * 4 * sr.hops());
    }
  }
}

TEST(LossyRouteSelectiveRepeat, AdversarialRegimeStaysSound) {
  Fixture fx(split_graph(4, 0.7, 37));
  LossyRouteOptions options;
  options.arq = ArqKind::kSelectiveRepeat;
  options.link.loss = 0.2;
  options.link.dup = 0.2;
  options.link.latency_max = 6;
  options.window.frames_per_message = 3;
  options.window.window = 2;
  options.window.max_retries = 5;
  const RegimeTally tally = sweep_all_pairs(fx, options, 0x5e1e);
  EXPECT_GT(tally.delivered, 0);
  EXPECT_GT(tally.delivered + tally.certified + tally.uncertified, 0);
}

TEST(LossyRouteSelectiveRepeat, ArqStatsSurfaceRetransmissionBehaviour) {
  Fixture fx(graph::connected_gnp(6, 0.5, 41));
  LossyRouteOptions options;
  options.arq = ArqKind::kSelectiveRepeat;
  options.link.loss = 0.25;
  options.window.frames_per_message = 4;
  options.window.max_retries = 30;
  LossyRouteSession session(fx.net, *fx.seq, 0, 4, options);
  const LossyVerdict v = session.run();
  EXPECT_EQ(v, LossyVerdict::kDelivered);
  const ArqStats stats = session.arq_stats();
  EXPECT_GT(stats.retransmits, 0u);   // loss really forced resends
  EXPECT_GT(stats.rtt_samples, 0u);   // clean frames fed the estimator
  EXPECT_GT(stats.virtual_time, 0u);
  EXPECT_GT(stats.srtt, 0u);
}

// ---------------------------------------------------------------------------
// Loss + churn composed: LossyDynamicRouteSession.
// ---------------------------------------------------------------------------

namespace {
void run_to_end(LossyDynamicRouteSession& sess) {
  for (int guard = 0; guard < 1000000 && !sess.finished(); ++guard) {
    if (sess.blocked()) break;
    sess.step();
  }
}
}  // namespace

TEST(LossyDynamicRoute, PerfectChannelDeliversAndCertifies) {
  graph::DynamicGraph g(graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}}));
  LossyDynamicRouteSession ok(g, 0, 2, {});
  run_to_end(ok);
  EXPECT_TRUE(ok.delivered());
  EXPECT_EQ(ok.completion_epoch(), 0u);
  LossyDynamicRouteSession fail(g, 0, 4, {});
  run_to_end(fail);
  EXPECT_TRUE(fail.failure_certified());
  EXPECT_EQ(fail.completion_epoch(), 0u);
}

TEST(LossyDynamicRoute, SourceEqualsTargetIsImmediate) {
  graph::DynamicGraph g(graph::cycle(4));
  LossyDynamicRouteSession sess(g, 2, 2, {});
  EXPECT_TRUE(sess.finished());
  EXPECT_TRUE(sess.delivered());
  EXPECT_EQ(sess.hops(), 0u);
}

TEST(LossyDynamicRoute, RestartsWhenEpochMovesMidWalk) {
  graph::DynamicGraph g(graph::path(12));
  LossyDynamicRouteSession sess(g, 0, 11, {});
  for (int k = 0; k < 5 && !sess.finished(); ++k) sess.step();
  g.add_edge(0, 11);
  g.commit();
  run_to_end(sess);
  EXPECT_TRUE(sess.delivered());
  EXPECT_EQ(sess.restarts(), 1u);
  EXPECT_EQ(sess.completion_epoch(), 1u);
}

TEST(LossyDynamicRoute, BudgetExhaustionBlocksThenEpochHeals) {
  // A dead channel spends every hop budget: the session must go blocked
  // (NOT uncertified — under churn the link may heal), then resume when
  // the epoch moves and the channel is rebuilt clean.
  graph::DynamicGraph g(graph::path(3));
  LossyDynamicOptions options;
  options.link.loss = 1.0;
  options.reliable.max_retries = 1;
  LossyDynamicRouteSession sess(g, 0, 2, options);
  sess.step();
  EXPECT_TRUE(sess.blocked());
  EXPECT_FALSE(sess.finished());
  sess.step();  // no-op while blocked in an unchanged epoch
  EXPECT_TRUE(sess.blocked());
  // Epoch moves; the rebuilt channel is seeded per-epoch, but loss = 1.0
  // still kills everything — prove blocked() resets and re-blocks.
  g.add_edge(0, 2);
  g.commit();
  EXPECT_FALSE(sess.blocked());  // epoch moved: eligible to step again
  sess.step();
  EXPECT_TRUE(sess.blocked());
  EXPECT_EQ(sess.restarts(), 1u);
}

TEST(LossyDynamicRoute, GiveUpResolvesBlockedToUncertified) {
  graph::DynamicGraph g(graph::path(3));
  LossyDynamicOptions options;
  options.link.loss = 1.0;
  options.reliable.max_retries = 1;
  LossyDynamicRouteSession sess(g, 0, 2, options);
  sess.step();
  ASSERT_TRUE(sess.blocked());
  sess.give_up();
  EXPECT_TRUE(sess.uncertified());
  EXPECT_TRUE(sess.finished());
}

TEST(LossyDynamicRoute, GiveUpIsNoOpUnlessBlocked) {
  graph::DynamicGraph g(graph::path(3));
  LossyDynamicRouteSession sess(g, 0, 2, {});
  sess.give_up();  // in flight, not blocked: keeps stepping
  EXPECT_FALSE(sess.finished());
  run_to_end(sess);
  EXPECT_TRUE(sess.delivered());
  sess.give_up();  // finished: still a no-op
  EXPECT_TRUE(sess.delivered());
}

TEST(LossyDynamicRoute, ComposedLossAndChurnVerdictsMatchCompletionEpoch) {
  // Loss at 0.15 over a topology whose bridge flaps: whatever hard verdict
  // comes out must match reachability at the completion epoch.
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    graph::DynamicGraph g(graph::from_edges(6, {{0, 1}, {1, 2}, {2, 3},
                                                {3, 4}, {4, 5}}));
    LossyDynamicOptions options;
    options.link.loss = 0.15;
    options.reliable.max_retries = 3;
    options.net_seed = util::counter_hash(0xc0a1, seed);
    LossyDynamicRouteSession sess(g, 0, 5, options);
    for (int k = 0; k < 3 && !sess.finished(); ++k) sess.step();
    if (!sess.finished()) {
      g.remove_edge(2, 3);  // cut the bridge mid-walk
      g.commit();
    }
    for (int guard = 0; guard < 100000 && !sess.finished(); ++guard) {
      if (sess.blocked()) sess.give_up();
      else sess.step();
    }
    ASSERT_TRUE(sess.finished());
    const bool reachable_now =
        graph::has_path(g.snapshot(), 0, 5);
    if (sess.delivered() && sess.completion_epoch() == g.epoch()) {
      EXPECT_TRUE(reachable_now) << "seed=" << seed;
    }
    if (sess.failure_certified() && sess.completion_epoch() == g.epoch()) {
      EXPECT_FALSE(reachable_now) << "seed=" << seed;
    }
  }
}

TEST(LossyDynamicRoute, OneSidedFlipsAreReplayable) {
  graph::DynamicGraph g(graph::connected_gnp(8, 0.4, 43));
  LossyVerdict verdicts[2];
  std::uint64_t frames[2];
  for (int run = 0; run < 2; ++run) {
    LossyDynamicOptions options;
    options.link.loss = 0.1;
    options.one_sided_down = 0.2;
    options.reliable.max_retries = 4;
    LossyDynamicRouteSession sess(g, 0, 6, options);
    for (int guard = 0; guard < 100000 && !sess.finished(); ++guard) {
      if (sess.blocked()) sess.give_up();
      else sess.step();
    }
    verdicts[run] = sess.verdict();
    frames[run] = sess.wire_frames();
  }
  EXPECT_EQ(verdicts[0], verdicts[1]);
  EXPECT_EQ(frames[0], frames[1]);
}

// ---------------------------------------------------------------------------
// One walk driver: the degenerate static walk, and the perfect-link churn
// walk stepping RouteSession's bookkeeping hop for hop.
// ---------------------------------------------------------------------------

TEST(LossyRouteSession, SourceEqualsTargetIsImmediateWithNoChannel) {
  Fixture fx(graph::cycle(4));
  LossyRouteSession session(fx.net, *fx.seq, 2, 2);
  EXPECT_TRUE(session.finished());
  EXPECT_TRUE(session.delivered());
  EXPECT_EQ(session.hops(), 0u);
  EXPECT_EQ(session.wire_frames(), 0u);
  EXPECT_EQ(session.run(), LossyVerdict::kDelivered);
}

TEST(LossyDynamicRoute, PerfectLinkLockstepsRouteSessionOnFrozenTopology) {
  // split_graph has two components, so both verdicts occur.
  for (const Graph& original :
       {split_graph(4, 0.7, 7), graph::connected_gnp(9, 0.4, 31),
        graph::cycle(6)}) {
    const graph::DynamicGraph g(original);
    const Fixture fx(g.snapshot());  // the walk reduces the snapshot
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      for (NodeId t = 0; t < g.num_nodes(); ++t) {
        if (s == t) continue;
        RouteSession route(fx.net, *fx.seq, s, t);
        LossyRouteSession walk = LossyRouteSession::perfect_link(g, s, t);
        while (!route.finished()) {
          route.step();
          walk.step();
          ASSERT_EQ(walk.hops(), route.transmissions()) << s << "->" << t;
          ASSERT_EQ(walk.wire_frames(), walk.hops());
          ASSERT_EQ(walk.target_reached(), route.target_reached());
          ASSERT_EQ(walk.finished(), route.finished());
        }
        EXPECT_EQ(walk.delivered(),
                  route.status() == net::Status::kSuccess);
        EXPECT_EQ(walk.failure_certified(),
                  route.status() == net::Status::kFailure);
        EXPECT_EQ(walk.restarts(), 0u);
        EXPECT_FALSE(walk.blocked());
      }
    }
  }
}

// The owner's per-epoch network: every session restarting into an epoch
// takes the one WalkNetwork its owner built for that epoch.
TEST(LossyDynamicRoute, SessionsRestartedInOneEpochShareTheOwnersNetwork) {
  graph::DynamicGraph g(graph::path(12));
  std::shared_ptr<const WalkNetwork> network =
      std::make_shared<const WalkNetwork>(g.snapshot(), g.epoch(),
                                          LossyDynamicOptions{}.seq_seed);
  LossyDynamicRouteSession lossy(g, 0, 11, network, LossyDynamicOptions{});
  LossyRouteSession perfect(g, 3, 9, network, std::nullopt);
  EXPECT_EQ(lossy.network(), network.get());
  EXPECT_EQ(perfect.network(), network.get());
  for (int k = 0; k < 3; ++k) {
    lossy.step();
    perfect.step();
  }
  g.add_edge(0, 11);
  g.commit();
  network = std::make_shared<const WalkNetwork>(
      g.snapshot(), g.epoch(), LossyDynamicOptions{}.seq_seed);
  lossy.step();
  perfect.step();
  EXPECT_EQ(lossy.restarts(), 1u);
  EXPECT_EQ(perfect.restarts(), 1u);
  EXPECT_EQ(lossy.network(), perfect.network());
  EXPECT_EQ(lossy.network(), network.get());
  EXPECT_EQ(lossy.network()->epoch, 1u);
  run_to_end(lossy);
  run_to_end(perfect);
  EXPECT_TRUE(lossy.delivered());
  EXPECT_TRUE(perfect.delivered());
  EXPECT_EQ(lossy.completion_epoch(), 1u);
}

TEST(LossyDynamicRoute, StaleSharedNetworkThrows) {
  graph::DynamicGraph g(graph::path(6));
  std::shared_ptr<const WalkNetwork> network =
      std::make_shared<const WalkNetwork>(g.snapshot(), g.epoch(),
                                          LossyDynamicOptions{}.seq_seed);
  LossyDynamicRouteSession sess(g, 0, 5, network, LossyDynamicOptions{});
  sess.step();
  g.add_edge(0, 5);
  g.commit();
  // The owner did not rebuild the network for the new epoch.
  EXPECT_THROW(sess.step(), std::logic_error);
  EXPECT_THROW(LossyRouteSession(g, 0, 5, network, LossyDynamicOptions{}),
               std::logic_error);
  EXPECT_THROW(LossyRouteSession(g, 0, 5, network, std::nullopt),
               std::logic_error);
  const std::shared_ptr<const WalkNetwork> none;
  EXPECT_THROW(LossyRouteSession(g, 0, 5, none, std::nullopt),
               std::logic_error);
}

}  // namespace
}  // namespace uesr::core
