// E14 kernel tests: the lossy TrafficEngine must stay SOUND — never a
// wrong certificate — under every composition of loss, duplication,
// one-sided links, churn, and load, and its cells must replay
// bit-identically for any thread count (PR 3 convention).
#include "baselines/workload.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/traffic.h"
#include "graph/churn.h"
#include "graph/generators.h"
#include "net/faults.h"

namespace uesr::baselines {
namespace {

using graph::Graph;
using graph::NodeId;

/// Two components: certificates must join every tally.
Graph split_graph() {
  const Graph a = graph::connected_gnp(4, 0.6, 27);
  const Graph b = graph::connected_gnp(4, 0.6, 28);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (const Graph* g : {&a, &b}) {
    const NodeId base_id = g == &b ? 4u : 0u;
    for (NodeId v = 0; v < g->num_nodes(); ++v)
      for (graph::Port q = 0; q < g->degree(v); ++q) {
        const graph::HalfEdge far = g->rotate(v, q);
        if (far.node > v || (far.node == v && far.port >= q))
          edges.emplace_back(base_id + v, base_id + far.node);
      }
  }
  return graph::from_edges(8, edges);
}

graph::NodeChurnScenario churn_scenario() {
  return graph::NodeChurnScenario(graph::connected_gnp(12, 0.3, 5), 0.3,
                                  0.45, 11);
}

TEST(LossyTraffic, ZeroLossConnectedDeliversEverything) {
  const Graph g = graph::connected_gnp(8, 0.4, 21);
  const Workload w = all_pairs_workload(8);
  core::LossyTrafficConfig cfg;
  const LossyTrafficCell cell =
      lossy_traffic_experiment(g, w, cfg, /*seq_seed=*/7, /*threads=*/1);
  EXPECT_EQ(cell.sessions, 56);
  EXPECT_EQ(cell.delivered, 56);
  EXPECT_EQ(cell.certified, 0);
  EXPECT_EQ(cell.uncertified, 0);
  EXPECT_EQ(cell.unsound, 0);
  // Stop-and-wait on perfect links: exactly one ack per successful hop.
  EXPECT_EQ(cell.wire_frames, 2 * cell.hops);
  EXPECT_EQ(cell.retransmits, 0u);
}

TEST(LossyTraffic, SelectiveRepeatAtZeroLossMatchesStopAndWaitVerdicts) {
  const Graph g = split_graph();
  const Workload w = all_pairs_workload(8);
  core::LossyTrafficConfig sw;
  core::LossyTrafficConfig sr = sw;
  sr.arq = core::ArqKind::kSelectiveRepeat;
  sr.window.frames_per_message = 2;
  const LossyTrafficCell a = lossy_traffic_experiment(g, w, sw, 7, 1);
  const LossyTrafficCell b = lossy_traffic_experiment(g, w, sr, 7, 1);
  // Same walks, same verdicts — the ARQ only changes the wire framing.
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.certified, b.certified);
  EXPECT_EQ(a.uncertified, 0);
  EXPECT_EQ(b.uncertified, 0);
  EXPECT_EQ(a.hops, b.hops);
  EXPECT_EQ(a.unsound, 0);
  EXPECT_EQ(b.unsound, 0);
  EXPECT_GT(a.certified, 0);  // the split really produced certificates
}

// The adversarial static sweeps: dup-only, loss-only, loss+dup, and the
// one-sided regime, for both ARQs.  Soundness is absolute (unsound == 0)
// and every session resolves to exactly one verdict.
TEST(LossyTraffic, StaticRegimeSweepsStaySound) {
  const Graph g = split_graph();
  const Workload w = all_pairs_workload(8);
  struct Regime {
    const char* name;
    double loss, dup, one_sided;
  };
  const Regime regimes[] = {
      {"dup-only", 0.0, 0.6, 0.0},
      {"loss-only", 0.25, 0.0, 0.0},
      {"loss+dup", 0.2, 0.3, 0.0},
      {"one-sided", 0.05, 0.0, 0.15},
  };
  for (const Regime& r : regimes) {
    for (core::ArqKind arq :
         {core::ArqKind::kStopAndWait, core::ArqKind::kSelectiveRepeat}) {
      core::LossyTrafficConfig cfg;
      cfg.link.loss = r.loss;
      cfg.link.dup = r.dup;
      cfg.link.latency_max = 4;
      cfg.one_sided_down = r.one_sided;
      cfg.arq = arq;
      cfg.reliable.max_retries = 6;
      cfg.window.max_retries = 6;
      cfg.window.frames_per_message = 2;
      cfg.window.window = 2;
      const LossyTrafficCell cell =
          lossy_traffic_experiment(g, w, cfg, 99, 1);
      EXPECT_EQ(cell.unsound, 0) << r.name;
      EXPECT_EQ(cell.delivered + cell.certified + cell.uncertified,
                cell.sessions)
          << r.name;
    }
  }
}

// Dup alone can never exhaust a budget: every session still resolves hard.
TEST(LossyTraffic, DupOnlyNeverDegradesToUncertified) {
  const Graph g = split_graph();
  const Workload w = all_pairs_workload(8);
  core::LossyTrafficConfig cfg;
  cfg.link.dup = 1.0;  // constant latency: the adaptive RTO never fires
  const LossyTrafficCell cell = lossy_traffic_experiment(g, w, cfg, 5, 1);
  EXPECT_EQ(cell.uncertified, 0);
  EXPECT_EQ(cell.unsound, 0);
  EXPECT_EQ(cell.retransmits, 0u);
}

// The composed fault regime of the tentpole: links flap (churn epochs) AND
// drop frames (lossy channel) in one replayable run.
TEST(LossyTraffic, ComposedLossAndChurnStaysSound) {
  auto sc = churn_scenario();
  const Workload w = all_pairs_workload(12);
  for (core::ArqKind arq :
       {core::ArqKind::kStopAndWait, core::ArqKind::kSelectiveRepeat}) {
    core::LossyTrafficConfig cfg;
    cfg.link.loss = 0.1;
    cfg.arq = arq;
    cfg.reliable.max_retries = 5;
    cfg.window.max_retries = 5;
    cfg.window.frames_per_message = 4;
    const LossyTrafficCell cell = lossy_traffic_experiment(
        sc, /*epoch_period=*/64, /*max_epochs=*/12, w, cfg, 17, 1);
    EXPECT_EQ(cell.sessions, 132);
    EXPECT_EQ(cell.unsound, 0);
    EXPECT_EQ(cell.delivered + cell.certified + cell.uncertified,
              cell.sessions);
  }
}

// The soundness audit must look up ground truth by the epoch STAMP a
// report carries, not by how many times the schedule advanced: a churn
// step that changes nothing commits no new epoch, so the two drift apart.
// Under this schedule an advance-count index audited every later verdict
// against the wrong topology and flagged sound certificates as unsound.
TEST(LossyTraffic, ChurnAuditIndexesGroundTruthByEpochStamp) {
  const graph::NodeChurnScenario sc(graph::connected_gnp(16, 0.25, 2), 0.1,
                                    0.5, 2);
  const Workload w = poisson_workload(16, 256, 0.5, 2);
  core::LossyTrafficConfig cfg;
  cfg.link.loss = 0.1;
  cfg.reliable.max_retries = 4;
  const LossyTrafficCell cell = lossy_traffic_experiment(
      sc, /*epoch_period=*/32, /*max_epochs=*/16, w, cfg, 0x5eed0001, 1);
  EXPECT_EQ(cell.sessions, 256);
  EXPECT_EQ(cell.unsound, 0);
  EXPECT_EQ(cell.delivered + cell.certified + cell.uncertified,
            cell.sessions);
}

// Termination under the worst case: a dead channel blocks every session
// each epoch; once the schedule freezes the engine must resolve them all
// to kUncertified instead of spinning.
TEST(LossyTraffic, FrozenScheduleResolvesBlockedSessionsToUncertified) {
  auto sc = churn_scenario();
  const Workload w = all_pairs_workload(8);
  core::LossyTrafficConfig cfg;
  cfg.link.loss = 1.0;
  cfg.reliable.max_retries = 2;
  const LossyTrafficCell cell =
      lossy_traffic_experiment(sc, 32, /*max_epochs=*/3, w, cfg, 23, 1);
  EXPECT_EQ(cell.sessions, 56);
  EXPECT_EQ(cell.delivered, 0);
  EXPECT_EQ(cell.certified, 0);
  EXPECT_EQ(cell.uncertified, 56);
  EXPECT_EQ(cell.unsound, 0);
}

TEST(LossyTraffic, AdmitRejectsNonRouteSessions) {
  const Graph g = graph::connected_gnp(8, 0.4, 3);
  core::TrafficOptions opt;
  opt.lossy = core::LossyTrafficConfig{};
  core::TrafficEngine engine(g, opt);
  core::SessionSpec spec;
  spec.kind = core::TrafficKind::kBroadcast;
  spec.s = 0;
  EXPECT_THROW(engine.admit(spec), std::invalid_argument);
  spec.kind = core::TrafficKind::kHybrid;
  spec.t = 1;
  EXPECT_THROW(engine.admit(spec), std::invalid_argument);
}

// The E14 headline comparison: at loss 0.1 the pipelined window moves a
// multi-frame payload in measurably less virtual time per delivered route
// than stop-and-wait pacing (window = 1) of the same framing.
TEST(LossyTraffic, SelectiveRepeatBeatsWindowOnePacingAtLossTen) {
  const Graph g = graph::connected_gnp(10, 0.35, 31);
  const Workload w = all_pairs_workload(10);
  core::LossyTrafficConfig paced;
  paced.link.loss = 0.1;
  paced.arq = core::ArqKind::kSelectiveRepeat;
  paced.window.frames_per_message = 16;
  paced.window.max_retries = 16;
  paced.window.window = 1;
  core::LossyTrafficConfig pipelined = paced;
  pipelined.window.window = 16;
  const LossyTrafficCell slow = lossy_traffic_experiment(g, w, paced, 7, 1);
  const LossyTrafficCell fast =
      lossy_traffic_experiment(g, w, pipelined, 7, 1);
  ASSERT_GT(slow.delivered, 0);
  ASSERT_GT(fast.delivered, 0);
  const double slow_vtime =
      static_cast<double>(slow.vtime_delivered) / slow.delivered;
  const double fast_vtime =
      static_cast<double>(fast.vtime_delivered) / fast.delivered;
  EXPECT_LT(fast_vtime, slow_vtime);
  EXPECT_EQ(slow.unsound, 0);
  EXPECT_EQ(fast.unsound, 0);
}

// Replay pin: four whole cells recorded once and compared field for field,
// so any change to the ARQs, the lossy sessions or the engine lanes that
// moves a single frame, draw or verdict shows up here.  A static chaos run
// (loss, duplication, jitter, one-sided links and a sampled crash /
// corruption / brownout plan per session) and a churn run (loss and
// one-sided links over node churn), each under stop-and-wait and under the
// default selective-repeat window.
LossyTrafficCell pinned(int sessions, int delivered, int certified,
                        int uncertified, std::uint64_t wire_frames,
                        std::uint64_t hops, std::uint64_t retransmits,
                        std::uint64_t restarts, std::uint64_t final_clock,
                        std::uint64_t vtime_delivered, double p50_tx,
                        double p99_tx) {
  LossyTrafficCell c;
  c.sessions = sessions;
  c.delivered = delivered;
  c.certified = certified;
  c.uncertified = uncertified;
  c.wire_frames = wire_frames;
  c.hops = hops;
  c.retransmits = retransmits;
  c.restarts = restarts;
  c.final_clock = final_clock;
  c.vtime_delivered = vtime_delivered;
  c.p50_tx = p50_tx;
  c.p99_tx = p99_tx;
  return c;
}

TEST(LossyTraffic, ReplayPinStaticChaosAndChurnCells) {
  const Graph g = graph::connected_gnp(10, 0.3, 41);
  const Workload w = poisson_workload(10, 24, 1.0, 43);
  core::LossyTrafficConfig chaos_cfg;
  chaos_cfg.link.loss = 0.05;
  chaos_cfg.link.dup = 0.05;
  chaos_cfg.link.latency_max = 3;
  chaos_cfg.one_sided_down = 0.01;
  chaos_cfg.reliable.max_retries = 6;
  net::ChaosConfig chaos;
  chaos.horizon = 1024;
  chaos.slot = 32;
  chaos.crash_rate = 0.003;
  chaos.crash_min = 8;
  chaos.crash_max = 48;
  chaos.corrupt_burst_rate = 0.05;
  chaos.corrupt_level = 0.3;
  chaos.burst_min = 8;
  chaos.burst_max = 32;
  chaos.brownout_rate = 0.002;
  chaos_cfg.chaos = chaos;

  const graph::NodeChurnScenario sc(graph::connected_gnp(8, 0.4, 47), 0.1,
                                    0.6, 53);
  const Workload wc = poisson_workload(8, 16, 1.0, 59);
  core::LossyTrafficConfig churn_cfg;
  churn_cfg.link.loss = 0.1;
  churn_cfg.one_sided_down = 0.02;
  churn_cfg.reliable.max_retries = 5;

  core::LossyTrafficConfig sr_chaos = chaos_cfg;
  sr_chaos.arq = core::ArqKind::kSelectiveRepeat;
  core::LossyTrafficConfig sr_churn = churn_cfg;
  sr_churn.arq = core::ArqKind::kSelectiveRepeat;

  EXPECT_EQ(lossy_traffic_experiment(g, w, chaos_cfg, 0x5eed0001, 1),
            pinned(24, 16, 0, 8, 4029, 1753, 300, 0, 915, 9046, 112,
                   846.59999999999991));
  EXPECT_EQ(lossy_traffic_experiment(g, w, sr_chaos, 0x5eed0001, 1),
            pinned(24, 13, 0, 11, 24893, 1394, 1462, 0, 6227, 10686, 817,
                   5718.3599999999988));
  EXPECT_EQ(lossy_traffic_experiment(sc, 32, 6, wc, churn_cfg, 0x5eed0001, 1),
            pinned(16, 10, 0, 6, 56357, 23945, 5705, 48, 49280, 13592,
                   364.5, 42553.64999999998));
  EXPECT_EQ(lossy_traffic_experiment(sc, 32, 6, wc, sr_churn, 0x5eed0001, 1),
            pinned(16, 10, 1, 5, 2465978, 140546, 173854, 48, 2213312,
                   33256, 1985, 2062616.6999999993));
}

// The PR 3 determinism contract extended to E14: every cell of the lossy
// traffic kernel is bit-identical for any thread count.
TEST(ThreadInvariance, LossyTrafficStatic) {
  const Graph g = split_graph();
  const Workload w = poisson_workload(8, 48, 1.5, 77);
  core::LossyTrafficConfig cfg;
  cfg.link.loss = 0.15;
  cfg.link.dup = 0.05;
  cfg.link.latency_max = 4;
  cfg.one_sided_down = 0.05;
  cfg.reliable.max_retries = 6;
  const LossyTrafficCell base = lossy_traffic_experiment(g, w, cfg, 123, 1);
  EXPECT_EQ(base.unsound, 0);
  for (unsigned t : {4u, 8u})
    EXPECT_EQ(base, lossy_traffic_experiment(g, w, cfg, 123, t))
        << "threads=" << t;
}

TEST(ThreadInvariance, LossyTrafficChurn) {
  auto sc = churn_scenario();
  const Workload w = poisson_workload(12, 48, 1.0, 91);
  core::LossyTrafficConfig cfg;
  cfg.link.loss = 0.1;
  cfg.arq = core::ArqKind::kSelectiveRepeat;
  cfg.window.frames_per_message = 4;
  cfg.window.max_retries = 5;
  const LossyTrafficCell base =
      lossy_traffic_experiment(sc, 48, 10, w, cfg, 321, 1);
  EXPECT_EQ(base.unsound, 0);
  for (unsigned t : {4u, 8u})
    EXPECT_EQ(base, lossy_traffic_experiment(sc, 48, 10, w, cfg, 321, t))
        << "threads=" << t;
}

}  // namespace
}  // namespace uesr::baselines
