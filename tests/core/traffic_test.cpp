#include "core/traffic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "baselines/workload.h"
#include "graph/algorithms.h"
#include "graph/churn.h"
#include "graph/generators.h"

namespace uesr::core {
namespace {

using graph::NodeId;

TrafficOptions with_walkers(TrafficOptions opt = {}) {
  opt.hybrid_walker = baselines::random_walk_factory();
  return opt;
}

TEST(TrafficEngine, RouteVerdictsMatchGroundTruth) {
  // Two components: deliveries and certificates must split exactly along
  // reachability, for every concurrently multiplexed session.
  graph::Graph g = graph::from_edges(
      7, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 6}});
  TrafficEngine engine(g);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId s = 0; s < 7; ++s)
    for (NodeId t = 0; t < 7; ++t)
      if (s != t) {
        engine.admit({TrafficKind::kRoute, s, t, 0, 0});
        pairs.emplace_back(s, t);
      }
  engine.run();
  for (std::size_t id = 0; id < pairs.size(); ++id) {
    const SessionReport& r = engine.report(id);
    const auto [s, t] = pairs[id];
    EXPECT_TRUE(r.finished);
    EXPECT_EQ(r.delivered, graph::has_path(g, s, t)) << s << "->" << t;
    EXPECT_EQ(r.failure_certified, !r.delivered);
  }
}

TEST(TrafficEngine, SharedClockAccounting) {
  graph::Graph g = graph::cycle(6);
  TrafficEngine engine(g);
  engine.admit({TrafficKind::kRoute, 0, 3, /*admit_at=*/0, 0});
  engine.admit({TrafficKind::kRoute, 1, 4, /*admit_at=*/100, 0});
  engine.run();
  for (std::size_t id = 0; id < 2; ++id) {
    const SessionReport& r = engine.report(id);
    ASSERT_TRUE(r.finished);
    // One slot per transmission: completion is exactly admission +
    // transmissions (Route's terminate step is free).
    EXPECT_EQ(r.completed_at, r.admitted_at + r.transmissions) << id;
  }
  EXPECT_EQ(engine.report(1).admitted_at, 100u);
  EXPECT_GE(engine.clock(), engine.report(1).completed_at);
}

TEST(TrafficEngine, SourceEqualsTargetImmediate) {
  graph::Graph g = graph::cycle(5);
  TrafficEngine engine(g);
  engine.admit({TrafficKind::kRoute, 2, 2, /*admit_at=*/7, 0});
  engine.run();
  const SessionReport& r = engine.report(0);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.transmissions, 0u);
  EXPECT_EQ(r.completed_at, 7u);
}

TEST(TrafficEngine, BroadcastCoversComponent) {
  graph::Graph g = graph::from_edges(6, {{0, 1}, {1, 2}, {2, 0}, {4, 5}});
  TrafficEngine engine(g);
  engine.admit({TrafficKind::kBroadcast, 0, 0, 0, 0});
  engine.admit({TrafficKind::kBroadcast, 4, 0, 0, 0});
  engine.admit({TrafficKind::kBroadcast, 3, 0, 0, 0});
  engine.run();
  EXPECT_EQ(engine.report(0).distinct_visited, 3u);  // {0,1,2}
  EXPECT_EQ(engine.report(1).distinct_visited, 2u);  // {4,5}
  EXPECT_EQ(engine.report(2).distinct_visited, 1u);  // isolated
  for (std::size_t id = 0; id < 3; ++id)
    EXPECT_TRUE(engine.report(id).delivered);
}

TEST(TrafficEngine, HybridSessionsDecide) {
  graph::Graph g = graph::from_edges(6, {{0, 1}, {1, 2}, {2, 0}, {4, 5}});
  TrafficEngine engine(g, with_walkers());
  engine.admit({TrafficKind::kHybrid, 0, 2, 0, /*hybrid_ttl=*/0});
  engine.admit({TrafficKind::kHybrid, 0, 4, 0, /*hybrid_ttl=*/50});
  engine.run();
  EXPECT_TRUE(engine.report(0).delivered);
  const SessionReport& unreachable = engine.report(1);
  EXPECT_FALSE(unreachable.delivered);
  // The guaranteed side certifies even after the token's TTL expires.
  EXPECT_TRUE(unreachable.failure_certified);
  EXPECT_FALSE(unreachable.exhausted);
}

TEST(TrafficEngine, HybridNeedsWalkerFactory) {
  graph::Graph g = graph::cycle(4);
  TrafficEngine engine(g);  // no factory configured
  EXPECT_THROW(engine.admit({TrafficKind::kHybrid, 0, 2, 0, 10}),
               std::invalid_argument);
}

TEST(TrafficEngine, AdmissionValidation) {
  graph::Graph g = graph::cycle(4);
  TrafficEngine engine(g);
  EXPECT_THROW(engine.admit({TrafficKind::kRoute, 9, 0, 0, 0}),
               std::invalid_argument);
  EXPECT_THROW(engine.admit({TrafficKind::kRoute, 0, 9, 0, 0}),
               std::invalid_argument);
  engine.admit({TrafficKind::kRoute, 0, 2, 5, 0});
  engine.run();
  // The clock has advanced past 5; admissions into the past must throw.
  EXPECT_THROW(engine.admit({TrafficKind::kRoute, 0, 1, 0, 0}),
               std::invalid_argument);
  TrafficOptions bad;
  bad.batch = 0;
  EXPECT_THROW(TrafficEngine(g, bad), std::invalid_argument);
}

TEST(TrafficEngine, StaggeredArrivalsRespectAdmitTicks) {
  graph::Graph g = graph::grid(3, 3);
  TrafficEngine engine(g);
  // Arrival ticks straddling several batch boundaries, admitted unsorted.
  const std::vector<std::uint64_t> at = {200, 3, 77, 0, 130};
  for (std::size_t i = 0; i < at.size(); ++i)
    engine.admit({TrafficKind::kRoute, static_cast<NodeId>(i),
                  static_cast<NodeId>(8 - i), at[i], 0});
  engine.run();
  for (std::size_t id = 0; id < at.size(); ++id) {
    const SessionReport& r = engine.report(id);
    EXPECT_EQ(r.admitted_at, at[id]);
    EXPECT_TRUE(r.finished);
    EXPECT_EQ(r.completed_at, r.admitted_at + r.transmissions);
  }
}

TEST(TrafficEngine, DynamicModeRoutesUnderChurn) {
  graph::NodeChurnScenario sc(graph::connected_gnp(14, 0.3, 5),
                              /*p_leave=*/0.15, /*p_join=*/0.5, 11);
  TrafficOptions opt;
  opt.epoch_period = 32;
  opt.max_epochs = 12;
  TrafficEngine engine(sc, opt);
  for (NodeId s = 0; s < 14; ++s)
    engine.admit({TrafficKind::kRoute, s, static_cast<NodeId>(13 - s),
                  s * 7, 0});
  engine.run();
  std::uint64_t restarts = 0;
  for (std::size_t id = 0; id < 14; ++id) {
    const SessionReport& r = engine.report(id);
    EXPECT_TRUE(r.finished);
    // Every session ends in a delivery or an epoch-exact certificate.
    EXPECT_TRUE(r.delivered || r.failure_certified) << id;
    EXPECT_LE(r.completion_epoch, engine.epoch());
    restarts += r.restarts;
  }
  // The schedule ran: epochs advanced on the shared clock.
  EXPECT_GT(engine.epoch(), 0u);
  (void)restarts;  // restarts can be 0 on gentle replays; counted per session
}

TEST(TrafficEngine, DynamicModeRejectsBroadcastAndHybrid) {
  graph::LinkFlapScenario sc(graph::connected_gnp(10, 0.3, 3), 2, 7);
  TrafficOptions opt = with_walkers();
  opt.epoch_period = 16;
  opt.max_epochs = 4;
  TrafficEngine engine(sc, opt);
  EXPECT_THROW(engine.admit({TrafficKind::kBroadcast, 0, 0, 0, 0}),
               std::invalid_argument);
  EXPECT_THROW(engine.admit({TrafficKind::kHybrid, 0, 1, 0, 10}),
               std::invalid_argument);
  engine.admit({TrafficKind::kRoute, 0, 5, 0, 0});
  engine.run();
  EXPECT_TRUE(engine.report(0).finished);
}

// The acceptance gate: >= 1024 concurrent sessions whose folded report is
// bit-identical for threads in {1, 4, 8} (cells include double-valued
// percentiles, so this pins the full merge order, not just counters).
TEST(ThreadInvariance, TrafficExperiment1024Sessions) {
  graph::Graph g = graph::connected_gnp(33, 0.18, 7);
  baselines::Workload w = baselines::all_pairs_workload(33);
  ASSERT_GE(w.sessions.size(), 1024u);
  const baselines::TrafficCell base =
      baselines::traffic_experiment(g, w, /*seq_seed=*/0x5eed0001,
                                    /*threads=*/1);
  EXPECT_EQ(base.sessions, static_cast<int>(w.sessions.size()));
  EXPECT_EQ(base.delivered, base.sessions);  // connected graph
  EXPECT_EQ(base.certified, 0);
  for (unsigned t : {4u, 8u})
    EXPECT_EQ(base, baselines::traffic_experiment(g, w, 0x5eed0001, t))
        << "threads=" << t;
}

TEST(ThreadInvariance, TrafficEngineReportsPerSession) {
  // Stronger than the cell: every per-session report identical at 1 vs 8
  // threads, mixed kinds included.
  graph::Graph g = graph::from_edges(
      8, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {5, 6}, {6, 7}});
  baselines::Workload w = baselines::mixed_workload(8, 48, 2.0, 64, 99);
  std::vector<SessionReport> base;
  for (unsigned threads : {1u, 8u}) {
    TrafficOptions opt = with_walkers();
    opt.threads = threads;
    TrafficEngine engine(g, opt);
    engine.admit_all(w.sessions);
    engine.run();
    if (threads == 1) {
      base = engine.reports();
      continue;
    }
    ASSERT_EQ(engine.reports().size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      const SessionReport& a = base[i];
      const SessionReport& b = engine.reports()[i];
      EXPECT_EQ(a.delivered, b.delivered) << i;
      EXPECT_EQ(a.failure_certified, b.failure_certified) << i;
      EXPECT_EQ(a.exhausted, b.exhausted) << i;
      EXPECT_EQ(a.transmissions, b.transmissions) << i;
      EXPECT_EQ(a.completed_at, b.completed_at) << i;
      EXPECT_EQ(a.distinct_visited, b.distinct_visited) << i;
    }
  }
}

// The PR 9 acceptance gate's second axis: the shard count partitions
// session state but must never be observable in any report field.
TEST(ShardInvariance, ReportsIdenticalAcrossShardCounts) {
  graph::Graph g = graph::connected_gnp(33, 0.18, 7);
  baselines::Workload w = baselines::all_pairs_workload(33);
  std::vector<SessionReport> base;
  for (unsigned shards : {1u, 4u, 16u}) {
    TrafficOptions opt;
    opt.shards = shards;
    TrafficEngine engine(g, opt);
    engine.admit_all(w.sessions);
    engine.run();
    if (shards == 1) {
      base = engine.reports();
      continue;
    }
    ASSERT_EQ(engine.reports().size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      const SessionReport& a = base[i];
      const SessionReport& b = engine.reports()[i];
      ASSERT_EQ(a.delivered, b.delivered) << "shards=" << shards << " " << i;
      ASSERT_EQ(a.failure_certified, b.failure_certified) << i;
      ASSERT_EQ(a.transmissions, b.transmissions) << i;
      ASSERT_EQ(a.completed_at, b.completed_at) << i;
    }
  }
}

TEST(TrafficEngine, OpenLoopDeparturesRetireWithoutVerdict) {
  graph::Graph g = graph::cycle(64);
  TrafficEngine engine(g);
  // Session 0: the antipodal walk needs far more than 5 transmissions;
  // the user leaves at tick 5.  Session 1: same route, patient enough to
  // see the verdict through.
  SessionSpec leave;
  leave.s = 0;
  leave.t = 32;
  leave.depart_at = 5;
  SessionSpec stay;
  stay.s = 0;
  stay.t = 32;
  engine.admit(leave);
  engine.admit(stay);
  engine.run();
  const SessionReport& gone = engine.report(0);
  EXPECT_TRUE(gone.finished);
  EXPECT_TRUE(gone.departed);
  EXPECT_FALSE(gone.delivered);
  EXPECT_FALSE(gone.failure_certified);
  // An arena walk's grant stops at its departure tick, so the retirement
  // instant is exact, and a slotted walk spends one transmission per tick
  // until then.
  EXPECT_EQ(gone.completed_at, 5u);
  EXPECT_EQ(gone.transmissions, 5u);
  const SessionReport& kept = engine.report(1);
  EXPECT_FALSE(kept.departed);
  EXPECT_TRUE(kept.delivered);
  // depart_at must be strictly after admission.
  SessionSpec bad;
  bad.s = 1;
  bad.t = 2;
  bad.admit_at = engine.clock() + 10;
  bad.depart_at = bad.admit_at;
  EXPECT_THROW(engine.admit(bad), std::invalid_argument);
}

/// Replays a fixed schedule through the pull interface.
class VectorArrivals final : public ArrivalSource {
 public:
  explicit VectorArrivals(std::vector<SessionSpec> specs)
      : specs_(std::move(specs)) {}
  std::optional<SessionSpec> next() override {
    if (i_ >= specs_.size()) return std::nullopt;
    return specs_[i_++];
  }

 private:
  std::vector<SessionSpec> specs_;
  std::size_t i_ = 0;
};

TEST(TrafficEngine, PulledArrivalsMatchUpFrontAdmission) {
  // The open-loop contract: a stream pulled lazily during run() produces
  // reports bit-identical to the same schedule admitted up front.
  graph::Graph g = graph::grid(5, 5);
  baselines::Workload w = baselines::poisson_workload(25, 120, 3.0, 21);
  TrafficEngine up_front(g);
  up_front.admit_all(w.sessions);
  up_front.run();
  TrafficEngine pulled(g);
  VectorArrivals source(w.sessions);
  pulled.attach_arrivals(source);
  pulled.run();
  ASSERT_EQ(pulled.reports().size(), up_front.reports().size());
  for (std::size_t i = 0; i < up_front.reports().size(); ++i) {
    const SessionReport& a = up_front.reports()[i];
    const SessionReport& b = pulled.reports()[i];
    ASSERT_EQ(a.admitted_at, b.admitted_at) << i;
    ASSERT_EQ(a.delivered, b.delivered) << i;
    ASSERT_EQ(a.transmissions, b.transmissions) << i;
    ASSERT_EQ(a.completed_at, b.completed_at) << i;
  }
  EXPECT_EQ(pulled.clock(), up_front.clock());
}

TEST(TrafficEngine, IdleFastForwardStopsAtTheEarliestArrival) {
  // Nothing in flight, a pending admission at tick 10,000 and a stream
  // whose next arrival is at tick 500: the idle jump must stop at 500,
  // or the stream's arrival would be admitted into the past.
  graph::Graph g = graph::cycle(8);
  TrafficEngine engine(g);
  engine.admit({TrafficKind::kRoute, 0, 4, /*admit_at=*/10'000, 0});
  SessionSpec early;
  early.s = 1;
  early.t = 5;
  early.admit_at = 500;
  VectorArrivals source({early});
  engine.attach_arrivals(source);
  engine.run();
  ASSERT_EQ(engine.session_count(), 2u);
  for (std::size_t id = 0; id < 2; ++id) {
    const SessionReport& r = engine.report(id);
    EXPECT_TRUE(r.delivered) << id;
    EXPECT_EQ(r.completed_at, r.admitted_at + r.transmissions) << id;
  }
  EXPECT_EQ(engine.report(1).admitted_at, 500u);
}

TEST(ShardInvariance, OpenLoopCellAcrossThreadsAndShards) {
  // Arrivals, departures, sharding and threading all at once: the folded
  // cell (double-valued percentiles included) must not move.
  const graph::Graph g = graph::disjoint_copies(graph::petersen(), 8);
  baselines::OpenLoopWorkload::Config cfg;
  cfg.cluster_size = 10;
  cfg.clusters = 8;
  cfg.sessions = 400;
  cfg.mean_interarrival = 0.5;
  cfg.mean_lifetime = 30.0;
  cfg.seed = 5;
  const baselines::TrafficCell base =
      baselines::open_loop_traffic_experiment(g, cfg, 0x5eed0001,
                                              /*threads=*/1, /*shards=*/1);
  EXPECT_EQ(base.sessions, 400);
  EXPECT_GT(base.delivered, 0);
  EXPECT_GT(base.departed, 0);  // the lifetime knob actually bites
  for (auto [threads, shards] :
       {std::pair{4u, 4u}, {8u, 16u}, {1u, 16u}, {4u, 1u}})
    EXPECT_EQ(base, baselines::open_loop_traffic_experiment(
                        g, cfg, 0x5eed0001, threads, shards))
        << "threads=" << threads << " shards=" << shards;
}

/// An open-loop stream of cluster-local route sessions with a few
/// broadcast and hybrid lanes mixed in.  Every broadcast departs (a full
/// broadcast walks all of T_n); hybrids keep the stream's departure on
/// odd ids and stay to their verdict on even ones.
std::vector<SessionSpec> mixed_open_loop(double gap, double lifetime,
                                         std::uint64_t seed) {
  baselines::OpenLoopWorkload::Config cfg;
  cfg.cluster_size = 10;
  cfg.clusters = 8;
  cfg.sessions = 240;
  cfg.mean_interarrival = gap;
  cfg.mean_lifetime = lifetime;
  cfg.seed = seed;
  baselines::OpenLoopWorkload stream(cfg);
  std::vector<SessionSpec> specs;
  for (std::size_t i = 0; std::optional<SessionSpec> spec = stream.next();
       ++i) {
    if (i % 23 == 7) {
      spec->kind = TrafficKind::kBroadcast;
      spec->depart_at = spec->admit_at + 40 + i % 50;
    } else if (i % 17 == 5) {
      spec->kind = TrafficKind::kHybrid;
      spec->hybrid_ttl = 30;
      if (i % 2 == 0) spec->depart_at = 0;
    }
    specs.push_back(*spec);
  }
  return specs;
}

// Per-walk grants: an arena walk that arrives or departs inside a round
// steps only its own ticks of it, so where rounds end is never visible.
// Batch 1 gives one-tick rounds — the schedule of an engine that cut a
// round at every arrival and departure — and every report field must
// match it at any batch, thread count and shard count.
TEST(GrantInvariance, ReportsIdenticalForAnyBatchThreadsAndShards) {
  const graph::Graph g = graph::disjoint_copies(graph::petersen(), 8);
  std::uint64_t seed = 31;
  for (double lifetime : {40.0, 2048.0})
    for (double gap : {0.05, 0.5, 3.0}) {
      const std::vector<SessionSpec> specs =
          mixed_open_loop(gap, lifetime, seed++);
      std::vector<SessionReport> base;
      for (std::uint64_t batch : {1u, 7u, 64u})
        for (auto [threads, shards] : {std::pair{1u, 1u}, {3u, 4u}}) {
          TrafficOptions opt = with_walkers();
          opt.batch = batch;
          opt.threads = threads;
          opt.shards = shards;
          TrafficEngine engine(g, opt);
          engine.admit_all(specs);
          engine.run();
          if (base.empty()) {
            base = engine.reports();
            int departed = 0;
            for (const SessionReport& r : base) departed += r.departed;
            EXPECT_GT(departed, 0) << "the lifetimes must bite";
            continue;
          }
          ASSERT_EQ(engine.reports().size(), base.size());
          for (std::size_t i = 0; i < base.size(); ++i)
            ASSERT_TRUE(engine.reports()[i] == base[i])
                << "gap=" << gap << " lifetime=" << lifetime
                << " batch=" << batch << " threads=" << threads
                << " shards=" << shards << " session " << i;
        }
    }
}

TEST(GrantInvariance, RouteStreamDrainsInFullRounds) {
  // ~3,000 arrivals about two per tick, a tail departing: arrivals and
  // departures must not cut rounds short, so the engine drains in about
  // one round per `batch` ticks of its busy span (an engine that clamps
  // every round to the next arrival needs about one round per tick).
  const graph::Graph g = graph::disjoint_copies(graph::petersen(), 8);
  baselines::OpenLoopWorkload::Config cfg;
  cfg.cluster_size = 10;
  cfg.clusters = 8;
  cfg.sessions = 3000;
  cfg.mean_interarrival = 0.5;
  cfg.mean_lifetime = 600.0;
  cfg.seed = 17;
  baselines::OpenLoopWorkload stream(cfg);
  TrafficEngine engine(g);
  while (std::optional<SessionSpec> spec = stream.next()) engine.admit(*spec);
  std::uint64_t rounds = 0;
  while (engine.unfinished_count() > 0) {
    engine.run_round();
    ++rounds;
  }
  std::uint64_t last = 0;
  int departed = 0;
  for (const SessionReport& r : engine.reports()) {
    last = std::max(last, r.completed_at);
    departed += r.departed;
  }
  EXPECT_GT(departed, 0);
  const std::uint64_t batch = TrafficOptions{}.batch;
  EXPECT_LE(rounds, (last + batch - 1) / batch + 2)
      << "last completion at tick " << last;
}

// A lossy lane's hop is atomic: one reliable transfer may burn many wire
// frames past the round's slot grant, so where rounds end moves its
// completion tick (SessionReport::completed_at is airtime-approximate).
// Everything else a lossy-static session reports — verdict, wire frames,
// hops, ARQ figures, virtual time — comes from its private channel and
// must match at any batch and thread count.
TEST(GrantInvariance, LossyStaticReportsIdenticalButCompletionTick) {
  const graph::Graph g = graph::connected_gnp(12, 0.3, 5);
  const baselines::Workload w = baselines::poisson_workload(12, 96, 2.0, 43);
  std::vector<LossyTrafficConfig> channels(3);
  channels[0].link.loss = 0.1;
  channels[0].link.latency_max = 4;
  channels[1].arq = ArqKind::kSelectiveRepeat;
  channels[1].link.loss = 0.05;
  channels[1].link.dup = 0.1;
  channels[1].window.frames_per_message = 2;
  channels[2].link.loss = 0.3;
  channels[2].reliable.max_retries = 2;
  channels[2].one_sided_down = 0.02;
  for (std::size_t c = 0; c < channels.size(); ++c) {
    std::vector<SessionReport> base;
    for (std::uint64_t batch : {1u, 7u, 64u, 4096u})
      for (unsigned threads : {1u, 3u}) {
        TrafficOptions opt;
        opt.lossy = channels[c];
        opt.batch = batch;
        opt.threads = threads;
        TrafficEngine engine(g, opt);
        engine.admit_all(w.sessions);
        engine.run();
        std::vector<SessionReport> reports = engine.reports();
        for (SessionReport& r : reports) {
          ASSERT_TRUE(r.finished);
          r.completed_at = 0;
        }
        if (base.empty()) {
          base = reports;
          int delivered = 0;
          for (const SessionReport& r : base) delivered += r.delivered;
          EXPECT_GT(delivered, 0) << "channel " << c;
          continue;
        }
        ASSERT_EQ(reports.size(), base.size());
        for (std::size_t i = 0; i < base.size(); ++i)
          ASSERT_TRUE(reports[i] == base[i])
              << "channel " << c << " batch=" << batch
              << " threads=" << threads << " session " << i;
      }
  }
}

// A scalar lane that departs mid-walk keeps the counters of the walk it
// made: hops, restarts and ARQ figures, not only its transmissions.  The
// verdict fields stay false.
TEST(TrafficEngine, DepartedScalarSessionsKeepTheirCounters) {
  graph::NodeChurnScenario sc(graph::connected_gnp(14, 0.3, 5),
                              /*p_leave=*/0.15, /*p_join=*/0.5, 11);
  for (bool lossy : {false, true}) {
    TrafficOptions opt;
    opt.epoch_period = 32;
    opt.max_epochs = 12;
    if (lossy) {
      opt.lossy = LossyTrafficConfig{};
      opt.lossy->link.loss = 0.1;
    }
    TrafficEngine engine(sc, opt);
    for (NodeId s = 0; s < 14; ++s)
      for (NodeId t = 0; t < 14; ++t)
        if (s != t)
          engine.admit({TrafficKind::kRoute, s, t, /*admit_at=*/s,
                        /*hybrid_ttl=*/0, /*depart_at=*/s + 3 + t % 5});
    engine.run();
    int departed_with_tx = 0;
    for (const SessionReport& r : engine.reports()) {
      if (!r.departed) continue;
      EXPECT_FALSE(r.delivered);
      EXPECT_FALSE(r.failure_certified);
      EXPECT_FALSE(r.uncertified);
      if (r.transmissions == 0) continue;
      ++departed_with_tx;
      EXPECT_GT(r.hops, 0u) << "lossy=" << lossy;
      if (lossy)
        EXPECT_GT(r.virtual_time, 0u);
      else
        EXPECT_EQ(r.hops, r.transmissions);
    }
    EXPECT_GT(departed_with_tx, 0) << "lossy=" << lossy;
  }
}

}  // namespace
}  // namespace uesr::core
