#include "core/lossy_route.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "explore/sequence_cache.h"
#include "util/rng.h"

namespace uesr::core {

using graph::NodeId;
using graph::Port;
using net::Status;

/// One churn epoch's network: the snapshot's reduction and its T_n.  The
/// walk and the channel point into it, so they go before the epoch does.
struct LossyRouteSession::Epoch {
  explore::ReducedGraph reduced;
  std::shared_ptr<const explore::ExplorationSequence> seq;
};

LossyRouteSession::LossyRouteSession(const explore::ReducedGraph& net,
                                     const explore::ExplorationSequence& seq,
                                     NodeId s, NodeId t,
                                     LossyRouteOptions options)
    : s_(s), t_(t), net_(&net), seq_(&seq) {
  const auto n_orig = static_cast<NodeId>(net.first_gadget.size());
  if (s >= n_orig)
    throw std::invalid_argument("LossyRouteSession: source out of range");
  if (t != net::kNoTarget && t >= n_orig)
    throw std::invalid_argument("LossyRouteSession: target out of range");
  options_.link = options.link;
  options_.reliable = options.reliable;
  options_.window = options.window;
  options_.arq = options.arq;
  options_.net_seed = options.net_seed;
  options_.faults = std::move(options.faults);
  if (s == t) {  // degenerate: nothing to send, whatever the channel does
    verdict_ = LossyVerdict::kDelivered;
    return;
  }
  restart();
}

LossyRouteSession::LossyRouteSession(const graph::DynamicGraph& g, NodeId s,
                                     NodeId t, LossyDynamicOptions options)
    : LossyRouteSession(g, s, t, std::move(options), true) {}

LossyRouteSession LossyRouteSession::perfect_link(const graph::DynamicGraph& g,
                                                  NodeId s, NodeId t,
                                                  std::uint64_t seq_seed) {
  LossyDynamicOptions options;
  options.seq_seed = seq_seed;
  return LossyRouteSession(g, s, t, std::move(options), false);
}

LossyRouteSession::LossyRouteSession(const graph::DynamicGraph& g, NodeId s,
                                     NodeId t, LossyDynamicOptions options,
                                     bool channel)
    : graph_(&g), s_(s), t_(t), options_(std::move(options)),
      channel_(channel) {
  const NodeId n = g.num_nodes();
  if (s >= n || t >= n)
    throw std::invalid_argument("LossyRouteSession: node out of range");
  session_epoch_ = g.epoch();
  if (s == t) {  // degenerate: nothing to send, whatever the channel does
    verdict_ = LossyVerdict::kDelivered;
    completion_epoch_ = session_epoch_;
    return;
  }
  rebuild();
}

LossyRouteSession::~LossyRouteSession() = default;

void LossyRouteSession::rebuild() {
  if (walk_) {
    // A restart: the discarded epoch's frames and retries were really
    // spent.
    walk_.reset();
    if (arq_) {
      carried_frames_ += arq_->frames();
      stats_.virtual_time += arq_->sim().now();
      arq_.reset();
    }
    epoch_.reset();
    ++restarts_;
  }
  session_epoch_ = graph_->epoch();
  epoch_ = std::make_unique<Epoch>();
  epoch_->reduced = explore::reduce_to_cubic(graph_->snapshot());
  // Concurrent sessions over the same snapshot (and restarts across
  // epochs that revisit a size) share one T_n via the process-wide cache.
  epoch_->seq = explore::cached_standard_ues(
      std::max<NodeId>(
          static_cast<NodeId>(epoch_->reduced.cubic.num_nodes()), 1),
      options_.seq_seed);
  net_ = &epoch_->reduced;
  seq_ = epoch_->seq.get();
  restart();
}

void LossyRouteSession::restart() {
  // Start the walk from scratch (stateless nodes make restarts free).
  walk_.emplace(*net_, *seq_, s_, t_);
  blocked_ = false;
  if (!channel_) return;
  // Every per-epoch stream is a pure function of (seed, epoch) — same
  // scenario, same seeds, same schedule: the replayability contract under
  // churn.  A static network's one epoch uses the seeds as given.
  const auto epoch_seed = [&](std::uint64_t seed) {
    return graph_ ? util::counter_hash(seed, session_epoch_) : seed;
  };
  arq_.emplace(net_->cubic, epoch_seed(options_.net_seed), options_.link,
               options_.arq == ArqKind::kStopAndWait
                   ? net::stop_and_wait(options_.reliable)
                   : options_.window);
  // Arm the fault schedule before any frame moves: every entry lands at
  // its exact plan time, interleaved with the walk's transfers.  Plan
  // times are in per-epoch virtual time (each epoch owns a new channel at
  // t = 0), and the sampled plan is a pure function of (epoch cubic,
  // config, counter_hash(chaos_seed, epoch)) — replayable composition of
  // churn, loss, and faults.
  net::EventSim& sim = arq_->sim();
  options_.faults.arm(sim);
  if (options_.chaos)
    net::FaultPlan::sample(net_->cubic, *options_.chaos,
                           epoch_seed(options_.chaos_seed))
        .arm(sim);
  if (options_.one_sided_down > 0.0) {
    // One-sided direction kills, re-drawn per epoch from their own stream
    // (never the channel's — the draws must not perturb frame schedules).
    util::Pcg32 flips(epoch_seed(options_.net_seed ^ 0x1e51dedu));
    const graph::Graph& cubic = net_->cubic;
    for (NodeId v = 0; v < cubic.num_nodes(); ++v)
      for (Port q = 0; q < cubic.degree(v); ++q)
        if (flips.next_double() < options_.one_sided_down)
          sim.set_link_up(v, q, false);
  }
}

bool LossyRouteSession::transfer(const RouteSession::Departure& d) {
  const net::WindowOutcome out = arq_->send(d.from, d.port);
  stats_.retransmits += out.retransmits;
  stats_.backoffs += out.backoffs;
  stats_.rtt_samples += out.rtt_samples;
  if (!out.delivered) {
    // Retry budget spent: the chain of custody is broken and this walk
    // asserts nothing (see header comment — the data or its ack may be
    // the lost half).  Under churn the next epoch may heal the link; a
    // static network never moves, so nothing can.
    blocked_ = true;
    if (!graph_) give_up();
    return false;
  }
  walk_->arrive(out.arrival);
  return true;
}

void LossyRouteSession::step() {
  if (finished()) return;
  if (current_epoch() != session_epoch_) rebuild();
  if (blocked_) return;  // same epoch, spent budget: wait for the topology
  // The hop is the only thing that varies: one ARQ transfer between the
  // walk's departure and arrival halves, or the perfect-link rotation
  // (RouteSession::step does depart(), rotate() and arrive() in one call).
  if (arq_) {
    const RouteSession::Departure d = walk_->depart();
    if (!d.terminate && !transfer(d)) return;
  } else {
    walk_->step();
  }
  if (walk_->finished()) {
    verdict_ = walk_->status() == Status::kSuccess
                   ? LossyVerdict::kDelivered
                   : LossyVerdict::kFailureCertified;
    completion_epoch_ = session_epoch_;
    return;
  }
  ++hops_;
  target_reached_ = target_reached_ || walk_->target_reached();
}

LossyVerdict LossyRouteSession::run() {
  while (!finished() && !blocked()) step();
  return verdict_;
}

void LossyRouteSession::give_up() {
  if (finished() || !blocked_) return;
  verdict_ = LossyVerdict::kUncertified;
  completion_epoch_ = session_epoch_;
}

std::uint64_t LossyRouteSession::wire_frames() const {
  if (!channel_) return hops_;
  return carried_frames_ + (arq_ ? arq_->frames() : 0);
}

ArqStats LossyRouteSession::arq_stats() const {
  ArqStats s = stats_;
  if (arq_) {
    s.srtt = arq_->estimator().srtt();
    s.rto = arq_->estimator().rto();
    s.virtual_time += arq_->sim().now();
  }
  return s;
}

}  // namespace uesr::core
