// Algorithm Route over an asynchronous lossy channel — and exactly what
// its certificates still mean there (DESIGN.md §2.10, §2.11).
//
// The per-node logic is untouched: LossyRouteSession steps a RouteSession
// (the §2.4 bookkeeping lives there and nowhere else) through its
// depart()/arrive() halves, and carries every hop between them through a
// reliable ARQ transfer (net::WindowTransport) instead of the perfect-link
// rotation.  ArqKind picks its configuration (the transport-selection
// seam):
//
//   * ArqKind::kStopAndWait     — window 1, one frame per hop
//     (net::stop_and_wait(reliable)), one frame per RTT;
//   * ArqKind::kSelectiveRepeat — the sliding window of `window`, with
//     `frames_per_message` frames per hop (the pipelined layer E14
//     measures against stop-and-wait).
//
// Because a reliable transfer either proves exactly-once far-end
// processing or admits ignorance, the session's walk, whenever it
// completes, is BIT-IDENTICAL to the lossless walk — and the verdicts
// partition into three cases with exact semantics:
//
//   * kDelivered        — every forward hop and every backward-confirmation
//                         hop was acked: t really processed the payload and
//                         s holds the proof.  SOUND under any loss /
//                         duplication / one-sided-link regime.
//   * kFailureCertified — a full walk exhausted its sequence and rewound to
//                         s, every hop acked: the §2.4 certificate stands
//                         exactly as on perfect links (t provably not in
//                         s's component, universality caveat as ever).
//                         SOUND whenever emitted — loss can only make it
//                         rarer, never wrong.
//   * kUncertified      — some hop spent its retry budget.  The sender
//                         side knows nothing (the two-generals gap: the
//                         data or its ack may be the lost half), so the
//                         session asserts nothing — NOT a failure
//                         certificate.  This is the degradation bounded
//                         retransmission buys: certificates stay sound,
//                         they just stop being guaranteed-available.
//
// Cost: with retry budget R, a walk of h hops spends at most
// (R + 1) * h DATA copies per frame plus the acks — the bounded-retransmit
// overhead E13/E14 measure against flooding and gossip.
//
// The same session composes this with churn (the paper's actual setting:
// "networks with frequently changing topology", §1).  Constructed over a
// graph::DynamicGraph, its hops run against an epoch stamp that is part of
// the walk's validity: every piece of the §2.4 bookkeeping is stated
// relative to ONE topology, so when the epoch moves the session RESTARTS —
// it reduces the new snapshot, sizes a fresh T_n for it and re-injects at
// s (stateless nodes make restarts free: no node has anything to forget).
// Every completed walk therefore ran within a single epoch, and its
// verdict is an exact statement about completion_epoch() (with the usual
// universality caveat of DESIGN.md §3); it says nothing about later
// epochs.  Links now fail BOTH ways at once — flapping in the topology
// layer and dropping frames in the channel layer — in one replayable
// scenario.  A static topology is simply an epoch that never moves.
//
// perfect_link() builds the churn walk without a channel: each hop is the
// perfect-link rotation (wire_frames() == hops()) and nothing ever
// blocks, so the session finishes as soon as the topology holds still
// long enough for one full walk.  A topology that changes forever faster
// than walks complete can starve it, which is a property of the network,
// not the algorithm (bench E11 measures exactly this edge).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "core/route.h"
#include "explore/degree_reduce.h"
#include "explore/sequence.h"
#include "graph/dynamic.h"
#include "net/faults.h"
#include "net/window.h"

namespace uesr::core {

enum class LossyVerdict : std::uint8_t {
  kInProgress,
  kDelivered,
  kFailureCertified,
  kUncertified,
};

/// Which configuration of the ARQ carries each hop.
enum class ArqKind : std::uint8_t { kStopAndWait, kSelectiveRepeat };

/// Per-transfer/behavioural counters the ARQ surfaces, folded over the
/// whole session (satellite: benches assert on retransmission behaviour,
/// not only outcomes).
struct ArqStats {
  std::uint64_t retransmits = 0;   ///< timeout-driven resends
  std::uint64_t backoffs = 0;      ///< RTO doublings applied
  std::uint64_t rtt_samples = 0;   ///< clean Karn samples taken
  net::SimTime srtt = 0;           ///< smoothed RTT at session end
  net::SimTime rto = 0;            ///< working RTO at session end
  net::SimTime virtual_time = 0;   ///< channel time the session consumed
};

struct LossyRouteOptions {
  net::LinkModel link{};            ///< channel model of every link
  net::ReliableOptions reliable{};  ///< stop-and-wait budget / timeouts
  net::WindowOptions window{};      ///< selective-repeat window / budgets
  ArqKind arq = ArqKind::kStopAndWait;
  std::uint64_t net_seed = 0x5eed0006;  ///< channel randomness
  /// Fault schedule armed into the session's simulator at construction
  /// (crash windows, brownouts, corruption bursts — DESIGN.md §2.12).
  /// Pure data, so the same options replay the same chaos.  A hop that
  /// spends its budget against a crashed node degrades to kUncertified —
  /// never a wrong certificate.
  net::FaultPlan faults{};
};

/// The transport-selection seam: when TrafficOptions::lossy is set,
/// every route session runs over its OWN lossy channel + ARQ (state-
/// disjoint per session, seeded counter_hash(net_seed, id) — thread-count
/// invariant by construction) instead of a perfect link.  Session verdicts
/// become per-session LossyVerdicts: delivered / failure-certified /
/// uncertified-after-budget.  In dynamic mode the channel composes with
/// churn (links flap AND drop in one replayable scenario); a session whose
/// budget dies waits for the next epoch and degrades to kUncertified only
/// once the schedule froze.
struct LossyTrafficConfig {
  net::LinkModel link{};            ///< channel model of every link
  net::ReliableOptions reliable{};  ///< stop-and-wait budget / timeouts
  net::WindowOptions window{};      ///< selective-repeat window / budgets
  ArqKind arq = ArqKind::kStopAndWait;
  /// Channel randomness: per-session channel seeds (engine), and under
  /// churn epoch e's rebuilt channel is seeded counter_hash(net_seed, e) —
  /// a pure function of (options, epoch).
  std::uint64_t net_seed = 0x5eed0007;
  /// P(directed cubic half-edge down), drawn per session (static) or per
  /// (session, epoch) (dynamic) from dedicated streams.  0 disables.
  double one_sided_down = 0.0;
  /// Scripted fault schedule armed into EVERY session's private channel
  /// (crash windows, brownouts, corruption bursts — DESIGN.md §2.12);
  /// under churn re-armed fresh() into every epoch's channel (plan times
  /// are in per-epoch virtual time).
  net::FaultPlan faults{};
  /// When set, each session's channel additionally arms a chaos plan
  /// sampled per session id (static) or per (session, epoch) (dynamic)
  /// from counter_hash(chaos_seed, id) — replayable and thread-count
  /// invariant like every other per-session stream.
  std::optional<net::ChaosConfig> chaos{};
  std::uint64_t chaos_seed = 0x5eedc4a0;  ///< chaos sampling randomness
};

/// Options of the composed loss + churn session: the traffic config's
/// channel, with the per-epoch T_n family seed (restarts size a fresh
/// sequence per snapshot).
struct LossyDynamicOptions : LossyTrafficConfig {
  std::uint64_t seq_seed = 0x5eed0001;
};

/// Resumable lossy routing: each step() performs one reliable hop (or
/// the free terminate step that ends a walk).
///
/// Over a static network the topology is one epoch that never moves: a hop
/// that spends its retry budget ends the session at once in kUncertified.
///
/// Over a graph::DynamicGraph the session restarts whenever the epoch
/// moves (§2.8).  Every completed walk ran entirely within one epoch over
/// one channel, so kDelivered / kFailureCertified are exact statements
/// about completion_epoch() — and loss still only ever degrades to
/// kUncertified.  A hop that spends its retry budget does NOT end the
/// session there (under churn the link may heal): the session goes
/// `blocked()` and waits for the next epoch, the dynamic face of the
/// ChurnRouter wait rule.  The owner (TrafficEngine, or a test loop) calls
/// give_up() once the schedule is frozen and no epoch will ever come —
/// only then does the verdict become kUncertified.
class LossyRouteSession {
 public:
  /// Static network.  `net` and `seq` must outlive the session (the same
  /// contract as RouteSession); t == net::kNoTarget broadcasts.  s == t is
  /// delivered at once, with no channel.
  LossyRouteSession(const explore::ReducedGraph& net,
                    const explore::ExplorationSequence& seq, graph::NodeId s,
                    graph::NodeId t, LossyRouteOptions options = {});
  /// Churning network.  `g` must outlive the session.  Epoch commits must
  /// happen strictly between step() calls (the TrafficEngine round
  /// contract).  s == t is delivered at once, with no channel.
  LossyRouteSession(const graph::DynamicGraph& g, graph::NodeId s,
                    graph::NodeId t, LossyDynamicOptions options = {});
  /// The churn walk over perfect links: no channel, every hop the
  /// rotation of the current epoch's reduction, never blocked.  `seq_seed`
  /// seeds the per-epoch T_n as LossyDynamicOptions::seq_seed does.
  static LossyRouteSession perfect_link(
      const graph::DynamicGraph& g, graph::NodeId s, graph::NodeId t,
      std::uint64_t seq_seed = LossyDynamicOptions{}.seq_seed);
  ~LossyRouteSession();
  LossyRouteSession(const LossyRouteSession&) = delete;
  LossyRouteSession& operator=(const LossyRouteSession&) = delete;

  /// One hop against the current epoch (restarting transparently when the
  /// epoch moved), or the free terminate step that ends a walk.  No-op
  /// once finished() or while blocked() in an unchanged epoch.
  void step();
  /// Drives to a verdict and returns it; under churn it stops early, at
  /// kInProgress, when the session blocks.
  LossyVerdict run();

  bool finished() const { return verdict_ != LossyVerdict::kInProgress; }
  LossyVerdict verdict() const { return verdict_; }
  bool delivered() const { return verdict_ == LossyVerdict::kDelivered; }
  bool failure_certified() const {
    return verdict_ == LossyVerdict::kFailureCertified;
  }
  bool uncertified() const { return verdict_ == LossyVerdict::kUncertified; }

  /// A hop spent its retry budget this epoch: the session sleeps until the
  /// topology changes.  Reports false again as soon as the epoch moved
  /// (the next step() rebuilds and resumes).  Never true once finished().
  bool blocked() const {
    return blocked_ && !finished() && current_epoch() == session_epoch_;
  }
  /// The owner promises no further epoch will come (schedule frozen): a
  /// blocked session resolves to kUncertified; an in-flight one keeps
  /// stepping (the frozen topology still lets it finish).  No-op unless
  /// blocked.
  void give_up();

  /// The forward walk reached t in some epoch (sticky across restarts;
  /// even if the confirmation later aborted — an uncertified session may
  /// still have delivered the payload; only the PROOF is missing).
  bool target_reached() const { return target_reached_; }

  /// Successful link transfers across all restarts (== the lossless
  /// walk's transmissions, when the session completes without a restart).
  std::uint64_t hops() const { return hops_; }
  /// Every DATA/ACK copy put on the wire, lost and duplicate-spawning
  /// copies included (discarded epochs' channels too: they were really
  /// sent).  Equal to hops() on perfect links.
  std::uint64_t wire_frames() const;
  /// Retransmission behaviour folded over the whole session.
  ArqStats arq_stats() const;
  std::uint64_t restarts() const { return restarts_; }
  /// Epoch the in-flight (or final) walk runs in (0 on a static network).
  std::uint64_t session_epoch() const { return session_epoch_; }
  /// Epoch the verdict is about; meaningful once finished().
  std::uint64_t completion_epoch() const { return completion_epoch_; }

  /// The configured ARQ.
  ArqKind arq() const { return options_.arq; }
  /// The current epoch's ARQ, for one-sided flips and crash faults on its
  /// simulator BEFORE stepping (every link shares the session's one
  /// LinkModel).  Absent when s == t and on perfect links.
  net::WindowTransport& transport() { return *arq_; }
  const net::WindowTransport& transport() const { return *arq_; }
  net::EventSim& sim() { return arq_->sim(); }

 private:
  struct Epoch;  ///< churn: one epoch's reduction + sequence

  /// Churn: `channel` false builds the perfect-link walk.
  LossyRouteSession(const graph::DynamicGraph& g, graph::NodeId s,
                    graph::NodeId t, LossyDynamicOptions options,
                    bool channel);
  std::uint64_t current_epoch() const {
    return graph_ ? graph_->epoch() : session_epoch_;
  }
  /// Churn: reduces the current snapshot and restarts the walk on it.
  void rebuild();
  /// Opens the epoch's channel (if the walk has one), arms its faults and
  /// starts the walk from s.
  void restart();
  /// Carries the walk's departure to its arrival over the ARQ; false (and
  /// the session blocked) when the transfer spent its retry budget.
  bool transfer(const RouteSession::Departure& d);

  const graph::DynamicGraph* graph_ = nullptr;  ///< null: static network
  graph::NodeId s_, t_;
  LossyDynamicOptions options_;
  bool channel_ = true;  ///< false: perfect links, no ARQ
  std::unique_ptr<Epoch> epoch_;
  const explore::ReducedGraph* net_ = nullptr;  ///< the epoch's network
  const explore::ExplorationSequence* seq_ = nullptr;
  std::optional<RouteSession> walk_;  ///< the epoch's walk; none if s == t
  std::optional<net::WindowTransport> arq_;  ///< the epoch's channel
  bool blocked_ = false;
  bool target_reached_ = false;
  LossyVerdict verdict_ = LossyVerdict::kInProgress;
  std::uint64_t hops_ = 0;
  std::uint64_t restarts_ = 0;
  std::uint64_t session_epoch_ = 0;
  std::uint64_t completion_epoch_ = 0;
  /// Wire frames of discarded epochs' channels; stats_ also carries their
  /// virtual time.
  std::uint64_t carried_frames_ = 0;
  ArqStats stats_;
};

/// The composed loss + churn session: the same class, built over a
/// graph::DynamicGraph.
using LossyDynamicRouteSession = LossyRouteSession;

}  // namespace uesr::core
