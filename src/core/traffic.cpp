#include "core/traffic.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/multi_walk.h"
#include "explore/sequence_cache.h"
#include "net/message.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace uesr::core {

using graph::NodeId;

namespace {
constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
}  // namespace

/// Per-session stepper.  step() performs at most one transmission (free
/// bookkeeping steps exist: the Route terminate step, hybrid decision
/// checks).  Lanes are state-disjoint: parallel rounds touch each lane
/// from exactly one worker and the shared topology is read-only.
struct TrafficEngine::Lane {
  virtual ~Lane() = default;
  virtual void step() = 0;
  virtual bool finished() const = 0;
  virtual std::uint64_t transmissions() const = 0;
  /// Writes the walk's counters other than transmissions, at completion
  /// and at departure alike.
  virtual void counters(SessionReport& r) const = 0;
  /// Writes the verdict fields once finished().
  virtual void verdict(SessionReport& r) const = 0;
  /// Lossy only: the session spent a retry budget and sleeps until the
  /// next epoch (stepping it is free and futile).
  virtual bool blocked() const { return false; }
  /// Lossy only: the schedule froze — resolve a blocked session to its
  /// no-verdict end state.
  virtual void give_up() {}
};

namespace {

/// Static-mode broadcast: one kBroadcast walk plus the cover bitmap
/// (mirrors UesRouter::broadcast, spread over slots).
struct BroadcastLane final : TrafficEngine::Lane {
  RouteSession session;
  std::vector<char> visited;
  std::uint64_t distinct = 0;

  BroadcastLane(const explore::ReducedGraph& net,
                const explore::ExplorationSequence& seq, NodeId s)
      : session(net, seq, s, net::kNoTarget),
        visited(net.first_gadget.size(), 0) {
    visit(s);
  }
  void visit(NodeId original) {
    if (!visited[original]) {
      visited[original] = 1;
      ++distinct;
    }
  }
  void step() override {
    session.step();
    if (!session.finished()) visit(session.current_original());
  }
  bool finished() const override { return session.finished(); }
  std::uint64_t transmissions() const override {
    return session.transmissions();
  }
  void counters(SessionReport& r) const override {
    r.distinct_visited = distinct;
  }
  void verdict(SessionReport& r) const override {
    // A completed broadcast delivered to everything reachable (when the
    // sequence covers); there is no failure verdict to certify.
    r.delivered = true;
  }
};

/// Static-mode Corollary-2 hybrid: an injected probabilistic token
/// interleaved with a guaranteed walk via the resumable HybridSession.
struct HybridLane final : TrafficEngine::Lane {
  std::unique_ptr<TokenWalker> prob;
  RouteSession guar;
  HybridSession hybrid;

  HybridLane(std::unique_ptr<TokenWalker> walker,
             const explore::ReducedGraph& net,
             const explore::ExplorationSequence& seq, NodeId s, NodeId t)
      : prob(std::move(walker)), guar(net, seq, s, t),
        hybrid(*prob, guar) {}
  void step() override { hybrid.step(); }
  bool finished() const override { return hybrid.finished(); }
  std::uint64_t transmissions() const override {
    return prob->transmissions() + guar.transmissions();
  }
  void counters(SessionReport&) const override {}
  void verdict(SessionReport& r) const override {
    const HybridResult& res = hybrid.result();
    r.delivered = res.delivered;
    r.failure_certified = res.certified_unreachable;
    r.exhausted = res.exhausted;
  }
};

/// Route over one LossyRouteSession: its own lossy channel + ARQ over the
/// static network, or the churning topology (§2.8 restarts), lossy or on
/// perfect links.  State-disjoint by construction — each lane owns its
/// walk and channel — so parallel rounds stay bit-identical for any thread
/// count.
struct LossyRouteLane final : TrafficEngine::Lane {
  LossyRouteSession session;

  /// Static network, lossy.
  LossyRouteLane(const explore::ReducedGraph& net,
                 const explore::ExplorationSequence& seq, NodeId s, NodeId t,
                 const LossyTrafficConfig& cfg, std::size_t id)
      : session(net, seq, s, t, static_options(net, cfg, id)) {
    if (session.finished() || cfg.one_sided_down <= 0.0) return;
    // Per-session direction kills from a dedicated stream (never the
    // channel's): replayable and thread-count invariant.
    util::Pcg32 flips(util::counter_hash(cfg.net_seed ^ 0x1e51dedu, id));
    const graph::Graph& cubic = net.cubic;
    net::EventSim& sim = session.sim();
    for (NodeId v = 0; v < cubic.num_nodes(); ++v)
      for (graph::Port q = 0; q < cubic.degree(v); ++q)
        if (flips.next_double() < cfg.one_sided_down)
          sim.set_link_up(v, q, false);
  }
  /// Churning network, lossy.
  LossyRouteLane(const graph::DynamicGraph& g, NodeId s, NodeId t,
                 const LossyTrafficConfig& cfg, std::uint64_t seq_seed,
                 std::size_t id)
      : session(g, s, t, dynamic_options(cfg, seq_seed, id)) {}
  /// Churning network, perfect links.
  LossyRouteLane(const graph::DynamicGraph& g, NodeId s, NodeId t,
                 std::uint64_t seq_seed)
      : session(LossyRouteSession::perfect_link(g, s, t, seq_seed)) {}

  static LossyRouteOptions static_options(const explore::ReducedGraph& net,
                                          const LossyTrafficConfig& cfg,
                                          std::size_t id) {
    LossyRouteOptions options;
    options.link = cfg.link;
    options.reliable = cfg.reliable;
    options.window = cfg.window;
    options.arq = cfg.arq;
    options.net_seed = util::counter_hash(cfg.net_seed, id);
    options.faults = cfg.faults;
    if (cfg.chaos)
      options.faults.merge(net::FaultPlan::sample(
          net.cubic, *cfg.chaos, util::counter_hash(cfg.chaos_seed, id)));
    return options;
  }
  static LossyDynamicOptions dynamic_options(const LossyTrafficConfig& cfg,
                                             std::uint64_t seq_seed,
                                             std::size_t id) {
    LossyDynamicOptions options{cfg, seq_seed};
    options.net_seed = util::counter_hash(cfg.net_seed, id);
    options.chaos_seed = util::counter_hash(cfg.chaos_seed, id);
    return options;
  }

  void step() override { session.step(); }
  bool finished() const override { return session.finished(); }
  std::uint64_t transmissions() const override {
    return session.wire_frames();
  }
  bool blocked() const override { return session.blocked(); }
  void give_up() override { session.give_up(); }
  void counters(SessionReport& r) const override {
    r.hops = session.hops();
    r.restarts = session.restarts();
    const ArqStats st = session.arq_stats();
    r.retransmits = st.retransmits;
    r.virtual_time = st.virtual_time;
  }
  void verdict(SessionReport& r) const override {
    r.delivered = session.delivered();
    r.failure_certified = session.failure_certified();
    r.uncertified = session.uncertified();
    r.completion_epoch = session.completion_epoch();
  }
};

}  // namespace

struct TrafficEngine::PoolHolder {
  util::ThreadPool pool;
  explicit PoolHolder(unsigned threads) : pool(threads) {}
};

/// One shard of the static perfect-link route fast path: a disjoint SoA
/// arena plus its in-flight session ids.  A round steps each shard from
/// exactly one worker (parallel_for over shards, chunk 1), and every
/// per-session outcome is independent of which shard the session landed
/// on, so reports are bit-identical for any shard count.
struct TrafficEngine::Shard {
  MultiWalkArena arena;
  std::vector<std::size_t> active;  ///< in-flight session ids
  std::size_t retired = 0;  ///< walks the last step_shard() retired
  Shard(const explore::ReducedGraph& net,
        const explore::ExplorationSequence& seq)
      : arena(net, seq) {}
};

TrafficEngine::TrafficEngine(const graph::Graph& g, TrafficOptions options)
    : options_(options),
      pool_(std::make_unique<PoolHolder>(options.threads)),
      graph_(&g),
      reduced_(explore::reduce_to_cubic(g, &pool_->pool)) {
  if (options_.batch == 0)
    throw std::invalid_argument("TrafficEngine: batch >= 1");
  seq_ = explore::cached_standard_ues(
      std::max<NodeId>(reduced_.cubic.num_nodes(), 1), options_.seq_seed);
  if (!options_.lossy) {
    // Static perfect-link mode: route sessions run on sharded SoA arenas.
    const unsigned shard_count =
        options_.shards ? options_.shards : pool_->pool.size();
    shards_.reserve(shard_count);
    for (unsigned i = 0; i < shard_count; ++i)
      shards_.push_back(std::make_unique<Shard>(reduced_, *seq_));
  }
}

TrafficEngine::TrafficEngine(const graph::Scenario& scenario,
                             TrafficOptions options)
    : options_(options),
      pool_(std::make_unique<PoolHolder>(options.threads)),
      scenario_(scenario.fresh()) {
  if (options_.batch == 0)
    throw std::invalid_argument("TrafficEngine: batch >= 1");
  if (options_.max_epochs > 0 && options_.epoch_period == 0)
    throw std::invalid_argument("TrafficEngine: epoch_period >= 1");
  dynamic_graph_ =
      std::make_unique<graph::DynamicGraph>(scenario_->initial());
  next_epoch_tick_ = options_.epoch_period;
}

TrafficEngine::~TrafficEngine() = default;

std::uint64_t TrafficEngine::epoch() const {
  return dynamic_graph_ ? dynamic_graph_->epoch() : 0;
}

std::size_t TrafficEngine::admit(const SessionSpec& spec) {
  const NodeId n =
      graph_ ? graph_->num_nodes() : dynamic_graph_->num_nodes();
  if (spec.s >= n)
    throw std::invalid_argument("TrafficEngine::admit: source out of range");
  if (spec.kind != TrafficKind::kBroadcast && spec.t >= n)
    throw std::invalid_argument("TrafficEngine::admit: target out of range");
  if (dynamic() && spec.kind != TrafficKind::kRoute)
    throw std::invalid_argument(
        "TrafficEngine::admit: dynamic mode multiplexes route sessions "
        "only (broadcast/hybrid semantics are per-epoch)");
  if (options_.lossy && spec.kind != TrafficKind::kRoute)
    throw std::invalid_argument(
        "TrafficEngine::admit: lossy mode multiplexes route sessions only "
        "(broadcast/hybrid have no reliable-transfer semantics yet)");
  if (spec.kind == TrafficKind::kHybrid && !options_.hybrid_walker)
    throw std::invalid_argument(
        "TrafficEngine::admit: kHybrid needs TrafficOptions::hybrid_walker "
        "(e.g. baselines::random_walk_factory())");
  if (spec.admit_at < clock_)
    throw std::invalid_argument(
        "TrafficEngine::admit: admit_at is in the past");
  if (spec.depart_at != 0 && spec.depart_at <= spec.admit_at)
    throw std::invalid_argument(
        "TrafficEngine::admit: depart_at must be > admit_at");
  const std::size_t id = reports_.size();
  SessionReport r;
  r.kind = spec.kind;
  r.s = spec.s;
  r.t = spec.kind == TrafficKind::kBroadcast ? net::kNoTarget : spec.t;
  r.admitted_at = spec.admit_at;
  reports_.push_back(r);
  lanes_.push_back(nullptr);  // built at activation (dynamic lanes must
                              // see the epoch they arrive in)
  specs_.push_back(spec);
  arena_walk_.push_back(static_cast<std::size_t>(-1));
  // Route fast path: static perfect-link kRoute sessions run on the SoA
  // arena shards, everything else on a scalar lane.
  if (!shards_.empty() && spec.kind == TrafficKind::kRoute) {
    arena_pending_.push_back(id);
  } else {
    pending_.push_back(id);
    if (spec.depart_at != 0) lane_departures_ = true;
  }
  ++unfinished_;
  return id;
}

void TrafficEngine::attach_arrivals(ArrivalSource& source) {
  arrivals_ = &source;
  arrivals_done_ = false;
}

void TrafficEngine::pull_arrivals() {
  if (arrivals_done_ && !staged_arrival_) return;
  for (;;) {
    if (!staged_arrival_) {
      if (arrivals_done_) return;
      staged_arrival_ = arrivals_->next();
      if (!staged_arrival_) {
        arrivals_done_ = true;
        return;
      }
    }
    // Anything beyond this round's reach stays staged; since rounds
    // advance the clock by at most batch ticks, the staged arrival can
    // never slip into the past.  admit() enforces nondecreasing streams
    // (an out-of-order arrival is "in the past" by construction).
    if (staged_arrival_->admit_at > clock_ + options_.batch) return;
    admit(*staged_arrival_);
    staged_arrival_.reset();
  }
}

void TrafficEngine::process_departures() {
  if (!lane_departures_) return;
  // Serial, in id order: departures are report writes.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const std::size_t id = active_[i];
    const std::uint64_t d = specs_[id].depart_at;
    if (d == 0 || d > clock_) {
      active_[kept++] = id;
      continue;
    }
    SessionReport& r = reports_[id];
    r.finished = true;
    r.departed = true;
    r.transmissions = lanes_[id]->transmissions();
    r.completed_at = clock_;
    lanes_[id]->counters(r);
    lanes_[id].reset();
    --unfinished_;
  }
  active_.resize(kept);
}

void TrafficEngine::admit_all(const std::vector<SessionSpec>& specs) {
  for (const SessionSpec& s : specs) admit(s);
}

void TrafficEngine::activate_arrivals() {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const std::size_t id = pending_[i];
    if (reports_[id].admitted_at > clock_) {
      pending_[kept++] = id;
      continue;
    }
    const SessionSpec& spec = specs_[id];
    if (options_.lossy && dynamic()) {
      lanes_[id] = std::make_unique<LossyRouteLane>(
          *dynamic_graph_, spec.s, spec.t, *options_.lossy,
          options_.seq_seed, id);
    } else if (options_.lossy) {
      lanes_[id] = std::make_unique<LossyRouteLane>(reduced_, *seq_, spec.s,
                                                    spec.t, *options_.lossy,
                                                    id);
    } else if (dynamic()) {
      lanes_[id] = std::make_unique<LossyRouteLane>(
          *dynamic_graph_, spec.s, spec.t, options_.seq_seed);
    } else if (spec.kind == TrafficKind::kBroadcast) {
      // (Static perfect-link kRoute sessions all run on the arena shards.)
      lanes_[id] = std::make_unique<BroadcastLane>(reduced_, *seq_, spec.s);
    } else {
      lanes_[id] = std::make_unique<HybridLane>(
          options_.hybrid_walker(*graph_, spec.s, spec.t, spec.hybrid_ttl,
                                 util::counter_hash(options_.walker_seed,
                                                    id)),
          reduced_, *seq_, spec.s, spec.t);
    }
    active_.push_back(id);
  }
  pending_.resize(kept);
  std::sort(active_.begin(), active_.end());
}

void TrafficEngine::activate_arena_arrivals(std::uint64_t round_end) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < arena_pending_.size(); ++i) {
    const std::size_t id = arena_pending_[i];
    const SessionSpec& spec = specs_[id];
    if (spec.admit_at >= round_end) {
      arena_pending_[kept++] = id;
      continue;
    }
    if (spec.s == spec.t) {
      // Never transmits: delivered at its arrival tick.
      SessionReport& r = reports_[id];
      r.finished = true;
      r.delivered = true;
      r.completed_at = spec.admit_at;
      --unfinished_;
      continue;
    }
    Shard& sh = *shards_[id % shards_.size()];
    arena_walk_[id] = sh.arena.admit(spec.s, spec.t);
    sh.active.push_back(id);
    ++arena_active_;
  }
  arena_pending_.resize(kept);
}

void TrafficEngine::step_shard(Shard& sh, std::uint64_t round_end) {
  constexpr std::size_t kLanes = MultiWalkArena::kBlockLanes;
  // Grants are computed one kernel block at a time, so the per-walk
  // scratch stays on the stack; survivors compact in place (kept never
  // overtakes the block being read).
  std::size_t kept = 0;
  const std::size_t m = sh.active.size();
  for (std::size_t base = 0; base < m; base += kLanes) {
    const std::size_t n = std::min(kLanes, m - base);
    std::size_t ids[kLanes];
    std::size_t walks[kLanes];
    std::uint64_t start[kLanes];
    std::uint64_t grant[kLanes];
    std::uint64_t before[kLanes];
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t id = sh.active[base + k];
      const SessionSpec& spec = specs_[id];
      // A walk that arrives inside the round starts at its arrival tick;
      // one whose user leaves inside it stops at the departure tick.
      start[k] = std::max(clock_, spec.admit_at);
      const std::uint64_t end =
          spec.depart_at ? std::min(round_end, spec.depart_at) : round_end;
      ids[k] = id;
      walks[k] = arena_walk_[id];
      grant[k] = end - start[k];
      before[k] = sh.arena.transmissions(walks[k]);
    }
    sh.arena.step_block(walks, grant, n);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t w = walks[k];
      const std::uint64_t depart_at = specs_[ids[k]].depart_at;
      SessionReport& r = reports_[ids[k]];
      if (sh.arena.finished(w)) {
        r.finished = true;
        r.transmissions = sh.arena.transmissions(w);
        r.completed_at = start[k] + (r.transmissions - before[k]);
        r.delivered = sh.arena.delivered(w);
        r.failure_certified = !r.delivered;
      } else if (depart_at != 0 && depart_at <= round_end) {
        // Still in flight at its departure tick (a rewind whose free
        // terminate falls on that tick included): no verdict.
        r.finished = true;
        r.departed = true;
        r.transmissions = sh.arena.transmissions(w);
        r.completed_at = depart_at;
      } else {
        sh.active[kept++] = ids[k];
      }
    }
  }
  sh.retired = m - kept;
  sh.active.resize(kept);
}

std::uint64_t TrafficEngine::ticks_to_epoch() const {
  if (!dynamic() || epochs_done_ >= options_.max_epochs) return kNever;
  return next_epoch_tick_ - clock_;
}

void TrafficEngine::advance_epochs_to(std::uint64_t tick) {
  while (dynamic() && epochs_done_ < options_.max_epochs &&
         next_epoch_tick_ <= tick) {
    scenario_->advance(*dynamic_graph_);
    ++epochs_done_;
    next_epoch_tick_ += options_.epoch_period;
  }
}

std::uint64_t TrafficEngine::next_arrival() {
  if (!staged_arrival_ && !arrivals_done_) {
    staged_arrival_ = arrivals_->next();
    if (!staged_arrival_) arrivals_done_ = true;
  }
  std::uint64_t next = staged_arrival_ ? staged_arrival_->admit_at : kNever;
  for (std::size_t id : pending_)
    next = std::min(next, reports_[id].admitted_at);
  for (std::size_t id : arena_pending_)
    next = std::min(next, reports_[id].admitted_at);
  return next;
}

std::size_t TrafficEngine::run_round() {
  // Idle gap: with nothing in flight, fast-forward to the next arrival
  // (possibly one the stream has not yielded yet), crossing any scenario
  // epochs scheduled in between.
  if (active_.empty() && arena_active_ == 0) {
    const std::uint64_t next = next_arrival();
    if (next == kNever) return unfinished_;
    clock_ = std::max(clock_, next);
  }
  advance_epochs_to(clock_);
  pull_arrivals();
  activate_arrivals();
  process_departures();
  // Lossy-dynamic mode: once the epoch schedule froze, no blocked session
  // can ever heal — resolve them to their no-verdict end state (serial, in
  // id order) so run() terminates.  Degrading, never falsely certifying.
  if (options_.lossy && dynamic() && ticks_to_epoch() == kNever)
    for (std::size_t id : active_) lanes_[id]->give_up();
  // Round length: the batch, clamped so no scalar lane steps across a
  // scenario-epoch boundary, past a not-yet-admitted scalar arrival, or
  // past a scalar departure tick.  Arena walks need no clamp: they start
  // and depart inside the round on per-walk grants.  All clamps read
  // global state only, so the grant — and with it every report — is
  // identical for any thread/shard count.
  std::uint64_t slots = options_.batch;
  slots = std::min(slots, ticks_to_epoch());
  for (std::size_t id : pending_)
    slots = std::min(slots, reports_[id].admitted_at - clock_);
  if (lane_departures_)
    for (std::size_t id : active_)
      if (specs_[id].depart_at)
        slots = std::min(slots, specs_[id].depart_at - clock_);
  const std::uint64_t round_end = clock_ + slots;
  activate_arena_arrivals(round_end);

  util::ThreadPool& pool = pool_->pool;
  // Arena phase: whole shards in parallel, one worker per shard; inside a
  // shard the SoA kernel block-steps every in-flight walk on its grant.
  if (arena_active_ > 0) {
    util::parallel_for(
        pool, shards_.size(), 1, [&](const util::ChunkRange& c) {
          for (std::uint64_t si = c.begin; si < c.end; ++si)
            step_shard(*shards_[static_cast<std::size_t>(si)], round_end);
        });
    for (const auto& shp : shards_) {
      unfinished_ -= shp->retired;
      arena_active_ -= shp->retired;
      shp->retired = 0;
    }
  }
  const std::uint64_t n = active_.size();
  if (n > 0)
    util::parallel_for(
        pool, n, util::default_chunk(n, pool.size()),
        [&](const util::ChunkRange& c) {
          for (std::uint64_t i = c.begin; i < c.end; ++i) {
            const std::size_t id = active_[static_cast<std::size_t>(i)];
            Lane& lane = *lanes_[id];
            std::uint64_t used = 0;
            // Free steps (terminate, hybrid decisions) never repeat
            // unboundedly, but cap total step calls defensively; the cap
            // is a constant, so reports stay thread-count invariant.  A
            // blocked lossy session sleeps out the round (stepping it is a
            // no-op until its epoch moves).
            std::uint64_t calls = 2 * slots + 8;
            while (!lane.finished() && !lane.blocked() && used < slots &&
                   calls-- > 0) {
              const std::uint64_t before = lane.transmissions();
              lane.step();
              used += lane.transmissions() - before;
            }
            if (lane.finished()) {
              SessionReport& r = reports_[id];
              r.finished = true;
              r.transmissions = lane.transmissions();
              r.completed_at = clock_ + used;
              lane.counters(r);
              lane.verdict(r);
            }
          }
        });
  clock_ = round_end;
  // Serial sweep in id order: retire finished lanes, free their state.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const std::size_t id = active_[i];
    if (reports_[id].finished) {
      lanes_[id].reset();
      --unfinished_;
    } else {
      active_[kept++] = id;
    }
  }
  active_.resize(kept);
  return unfinished_;
}

void TrafficEngine::run() {
  while (unfinished_ > 0 || staged_arrival_ || !arrivals_done_) run_round();
}

const SessionReport& TrafficEngine::report(std::size_t id) const {
  if (id >= reports_.size())
    throw std::out_of_range("TrafficEngine::report: bad session id");
  return reports_[id];
}

}  // namespace uesr::core
