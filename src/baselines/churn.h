// The churn comparison harness: Route vs flooding vs random walk vs greedy
// geographic forwarding under IDENTICAL dynamic-topology schedules.
//
// Time model (shared by every router so the comparison is fair): the
// network advances one scenario epoch every `period` transmissions, for at
// most `max_epochs` epochs; after the schedule ends the topology freezes,
// so every router below terminates unconditionally.  A router that cannot
// transmit at all (random walker stranded on a degree-0 node, greedy
// forwarder in a local minimum) *waits*: it forfeits the rest of the
// current epoch and resumes when the topology next changes — or gives up
// when no epochs remain.  Scenario replays are exact (graph::Scenario is
// deterministic per seed), so two route_* calls see bit-identical epoch
// sequences.
//
// Certification under churn — who can still prove anything:
//   * UES Route restarts per epoch, so its verdicts are exact statements
//     about the completion epoch (see core/lossy_route.h).
//   * Flooding's classic certificate ("the wave covered Cs") is UNSOUND
//     under churn — a link can appear behind the wave — so route_flooding
//     never certifies here, unlike the static FloodingRouter.
//   * Random walk and greedy certify nothing, as ever.
//
// churn_experiment() is the one report kernel both the bench driver
// (bench_churn_delivery) and the ThreadInvariance tests consume: trials
// fan out over util::parallel_reduce with per-trial RNG (PR 3 convention),
// so its cells are bit-identical for any thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "baselines/common.h"
#include "graph/churn.h"
#include "graph/dynamic.h"

namespace uesr::baselines {

struct ChurnAttempt {
  bool delivered = false;
  /// UES only: a full failed walk completed within completion_epoch.
  bool failure_certified = false;
  std::uint64_t transmissions = 0;
  /// Scenario advances consumed by the attempt (replay with
  /// ChurnRouter::co_connected_after to recover the topology it ended on).
  std::uint64_t ticks = 0;
  std::uint64_t restarts = 0;  ///< UES epoch restarts; 0 for baselines
  std::uint64_t completion_epoch = 0;
};

class ChurnRouter {
 public:
  /// `scenario` must outlive the router.  period: transmissions between
  /// epochs (>= 1); max_epochs: schedule length, after which the topology
  /// freezes.
  ChurnRouter(const graph::Scenario& scenario, std::uint64_t period,
              std::uint64_t max_epochs);

  /// Algorithm Route via core::LossyRouteSession::perfect_link (restart
  /// per epoch).
  ChurnAttempt route_ues(graph::NodeId s, graph::NodeId t,
                         std::uint64_t seq_seed = 0x5eed0001) const;

  /// TTL'd random walk over the live snapshot (ttl > 0 required: under a
  /// finite schedule an unlimited walk on a frozen disconnected graph
  /// would never terminate).  Stranded walkers wait for the next epoch.
  ChurnAttempt route_random_walk(graph::NodeId s, graph::NodeId t,
                                 std::uint64_t ttl,
                                 std::uint64_t seed) const;

  /// Flooding with persistent per-node seen bits (the model violation the
  /// static baseline already commits); never certifies under churn.  It is
  /// route_gossip(s, t, 0.0, 1.0, 0): at p = 1 every infected node speaks
  /// and at loss = 0 every copy arrives, so no draw changes anything.
  ChurnAttempt route_flooding(graph::NodeId s, graph::NodeId t) const {
    return route_gossip(s, t, 0.0, 1.0, 0);
  }

  /// baselines::gossip_lossy lifted to the churn grid (the Haas–Halpern–Li
  /// comparison point of PAPERS.md under a MOVING topology): each copy is
  /// lost with probability `loss`, each newly-infected node retransmits
  /// with probability `p` (the source always does), seen bits persist
  /// across epochs.  Draws come from one Pcg32(seed) in deterministic
  /// frontier order, so the attempt is a pure function of (scenario, s, t,
  /// loss, p, seed) — seed-pure and replayable per the PR 4 convention.
  /// Never certifies.
  ChurnAttempt route_gossip(graph::NodeId s, graph::NodeId t, double loss,
                            double p, std::uint64_t seed) const;

  /// Greedy geographic forwarding on the epoch's committed positions (2D
  /// or 3D, whichever the scenario publishes; throws std::logic_error when
  /// it publishes neither).  Local minima wait for the next epoch.
  ChurnAttempt route_greedy(graph::NodeId s, graph::NodeId t) const;

  /// Ground truth: replays the schedule `ticks` advances in and reports
  /// whether s and t are in the same component of that topology.
  bool co_connected_after(std::uint64_t ticks, graph::NodeId s,
                          graph::NodeId t) const;

  std::uint64_t period() const { return period_; }
  std::uint64_t max_epochs() const { return max_epochs_; }

 private:
  struct Replay;

  const graph::Scenario* scenario_;
  std::uint64_t period_;
  std::uint64_t max_epochs_;
};

/// One experiment cell: every counter summed over the trial pairs.  All
/// fields are thread-count invariant (pinned by the ThreadInvariance churn
/// tests).
struct ChurnCell {
  int pairs = 0;
  int ues_delivered = 0;
  int ues_certified = 0;
  /// UES verdicts contradicting ground truth at the completion topology —
  /// the acceptance gate; expected 0 always.
  int ues_errors = 0;
  std::uint64_t ues_transmissions = 0;
  std::uint64_t ues_restarts = 0;
  int rw_delivered = 0;
  int flood_delivered = 0;
  int gossip_delivered = 0;
  std::uint64_t gossip_transmissions = 0;
  bool has_greedy = false;  ///< scenario publishes positions
  int greedy_delivered = 0;

  friend bool operator==(const ChurnCell&, const ChurnCell&) = default;
};

/// Runs `pairs` independent (s, t) trials of the five-router comparison
/// under the scenario's schedule and sums the outcomes.  The pair list is
/// drawn serially from Pcg32(seed); trial i's random-walk stream is
/// Pcg32(counter_hash(seed, i)) and its gossip stream
/// Pcg32(counter_hash(seed ^ 0x90551b, i)); trials fan out over `threads`
/// lanes (0 = resolve via UESR_THREADS / hardware) with chunk results
/// merged in index order — the returned cell is bit-identical for any
/// thread count.  gossip_loss / gossip_p parameterise the route_gossip
/// column (defaults sit near its percolation knee; see
/// bench_lossy_delivery's threshold table).
ChurnCell churn_experiment(const graph::Scenario& scenario, int pairs,
                           std::uint64_t period, std::uint64_t max_epochs,
                           std::uint64_t rw_ttl, std::uint64_t seed,
                           unsigned threads = 0, double gossip_loss = 0.1,
                           double gossip_p = 0.65);

}  // namespace uesr::baselines
