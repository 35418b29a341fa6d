#include "perfbench.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "baselines/workload.h"
#include "core/lossy_route.h"
#include "core/multi_walk.h"
#include "core/traffic.h"
#include "explore/degree_reduce.h"
#include "explore/sequence_cache.h"
#include "graph/algorithms.h"
#include "graph/churn.h"
#include "graph/dynamic.h"
#include "graph/generators.h"
#include "net/faults.h"
#include "util/rng.h"
#include "util/stats.h"

#include "gate.h"

namespace perfbench {

using namespace uesr;
using graph::NodeId;

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"run_s", "s"},
      {"sessions_per_s", "1/s"},
      {"steps_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
      {"delivery_ratio", "ratio"},
      {"latency_p50_ticks", "ticks"},
      {"latency_tail_ticks", "ticks"},
      {"tx_per_delivery", "frames"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"graph.build_s", "s"},
      {"explore.reduce_s", "s"},
      {"explore.cubic_nodes", "count"},
      {"core.traffic.ctor_s", "s"},
      {"core.traffic.rounds", "count"},
      {"core.traffic.slots_per_round", "ticks"},
      {"core.traffic.round_ms_p50", "ms"},
      {"core.traffic.round_ms_p99", "ms"},
      {"core.traffic.round_self_s", "s"},
      {"explore.fill_ns_per_symbol", "ns"},
      {"core.multi_walk.steps_per_s_full", "1/s"},
      {"core.multi_walk.steps_per_s_budget1", "1/s"},
      {"core.multi_walk.engine_efficiency", "ratio"},
      {"core.traffic.in_flight_mean", "count"},
      {"core.traffic.in_flight_max", "count"},
      {"core.traffic.rss_bytes_per_session", "B"},
      {"net.faults.sample_ms", "ms"},
      {"core.lossy_route.ctor_ms_p50", "ms"},
      {"core.lossy_route.ctor_ms_p99", "ms"},
      {"core.lossy_route.heap_mb_per_session", "MB"},
      {"core.lossy_route.restarts", "count"},
      {"explore.snapshot_reduce_us", "us"},
      {"graph.epoch_advance_us", "us"},
      {"core.lossy_route.hop_us", "us"},
      {"net.wire_frames_per_hop", "frames"},
      {"net.retransmits_per_hop", "frames"},
      {"net.vtime_per_delivery", "ticks"},
      {"baselines.arrivals_s", "s"},
      {"baselines.fold_s", "s"},
      {"trace.overhead_s", "s"},
  };
  return defs;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "openloop-clusters", "burst-clusters", "lossy-chaos-clusters",
      "lossy-churn"};
  return names;
}

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::uint64_t kSeqSeed = 0x5eed0001;

// --- workload definitions --------------------------------------------------

struct WorkloadDef {
  // Topology: `clusters` disjoint copies of one connected_gnp(cluster_size,
  // cluster_p, topology_seed) cluster; the churn workload uses one
  // connected_gnp.  The topology is part of the workload's definition, not
  // of its seed: --seed draws the arrival stream and the channel and chaos
  // randomness, so seeds vary the traffic over one fixed network.
  NodeId cluster_size = 8;
  NodeId clusters = 1;
  double cluster_p = 0.45;
  std::uint64_t topology_seed = 211;
  // Open-loop arrival stream (baselines::OpenLoopWorkload), virtual time.
  std::uint64_t sessions = 0;
  double mean_interarrival = 0.0;
  double mean_lifetime = 0.0;
  // Engine.
  unsigned threads = 1;
  unsigned shards = 1;
  std::uint64_t batch = 64;
  std::optional<core::LossyTrafficConfig> lossy;
  // Node churn (lossy-churn only).
  bool churn = false;
  std::uint64_t churn_seed = 107;
  double p_leave = 0.0;
  double p_join = 0.0;
  std::uint64_t epoch_period = 0;
  std::uint64_t max_epochs = 0;
  // Gate.
  bool no_certificates = false;
  // Set-ups timed per repetition (the last one is kept and run).
  int setups_per_rep = 1;
  // Traced-run probe sizes.
  std::size_t kernel_walks = 0;
  std::size_t lossy_probes = 0;
  double probe_cap_s = 1.0;
};

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k) {
  return util::counter_hash(seed, k);
}

/// The selective-repeat chaos channel of lossy-chaos-clusters; the other
/// workloads' lossy-layer probes reuse it as their reference channel.
core::LossyTrafficConfig chaos_channel(std::uint64_t seed) {
  core::LossyTrafficConfig cfg;
  cfg.link.loss = 0.05;
  cfg.link.dup = 0.02;
  cfg.arq = core::ArqKind::kSelectiveRepeat;
  cfg.window.window = 4;
  cfg.window.frames_per_message = 4;
  cfg.window.max_retries = 8;
  net::ChaosConfig chaos;
  chaos.horizon = 2048;
  chaos.slot = 64;
  chaos.crash_rate = 0.002;
  chaos.crash_min = 16;
  chaos.crash_max = 64;
  chaos.corrupt_burst_rate = 0.02;
  chaos.corrupt_level = 0.3;
  chaos.burst_min = 8;
  chaos.burst_max = 32;
  cfg.chaos = chaos;
  cfg.net_seed = sub_seed(seed, 3);
  cfg.chaos_seed = sub_seed(seed, 4);
  return cfg;
}

core::LossyTrafficConfig churn_channel(std::uint64_t seed) {
  core::LossyTrafficConfig cfg;
  cfg.link.loss = 0.1;
  cfg.arq = core::ArqKind::kStopAndWait;
  cfg.reliable.max_retries = 4;
  cfg.net_seed = sub_seed(seed, 3);
  cfg.chaos_seed = sub_seed(seed, 4);
  return cfg;
}

WorkloadDef make_def(const std::string& name, std::uint64_t seed, bool tiny) {
  WorkloadDef d;
  d.probe_cap_s = tiny ? 0.02 : 1.0;
  if (name == "openloop-clusters" || name == "burst-clusters") {
    d.clusters = tiny ? 256 : 131072;  // 8 * 131072 = 2^20 nodes
    d.no_certificates = true;
    if (name == "openloop-clusters") {
      d.sessions = tiny ? 256 : 32768;
      d.mean_interarrival = 0.05;  // ~20 arrivals per tick
      d.mean_lifetime = 2048.0;    // Exp lifetimes: a tail departs
      // Two threads rather than one: on a host shared with other guests,
      // one thread's wall time swings with contention about twice as much.
      d.threads = 2;
      d.shards = 2;
      d.kernel_walks = d.sessions;
    } else {
      d.sessions = tiny ? 512 : 524288;
      d.threads = 2;
      d.shards = 4;
      d.kernel_walks = tiny ? 512 : 65536;
    }
  } else if (name == "lossy-chaos-clusters") {
    d.clusters = tiny ? 16 : 128;
    d.sessions = tiny ? 64 : 2048;
    d.mean_interarrival = 4.0;
    d.lossy = chaos_channel(seed);
    d.no_certificates = true;
    d.setups_per_rep = tiny ? 2 : 25;
    d.kernel_walks = d.sessions;
    d.lossy_probes = tiny ? 4 : 64;
  } else if (name == "lossy-churn") {
    d.cluster_size = tiny ? 16 : 34;
    d.cluster_p = 0.16;
    d.topology_seed = 29;
    d.clusters = 1;
    d.churn = true;
    d.p_leave = 0.05;
    d.p_join = 0.45;
    d.epoch_period = 96;
    d.max_epochs = tiny ? 6 : 24;
    d.sessions = tiny ? 64 : 2048;
    d.mean_interarrival = 1.0;  // arrivals span ~21 of the 24 epochs
    d.lossy = churn_channel(seed);
    d.threads = 2;  // for the same reason as openloop-clusters
    d.setups_per_rep = tiny ? 2 : 25;
    d.kernel_walks = d.sessions;
    d.lossy_probes = tiny ? 4 : 64;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return d;
}

baselines::OpenLoopWorkload::Config arrival_config(const WorkloadDef& d,
                                                   std::uint64_t seed) {
  baselines::OpenLoopWorkload::Config cfg;
  cfg.cluster_size = d.cluster_size;
  cfg.clusters = d.clusters;
  cfg.sessions = d.sessions;
  cfg.mean_interarrival = d.mean_interarrival;
  cfg.mean_lifetime = d.mean_lifetime;
  cfg.seed = sub_seed(seed, 2);
  return cfg;
}

core::TrafficOptions engine_options(const WorkloadDef& d) {
  core::TrafficOptions opt;
  opt.seq_seed = kSeqSeed;
  opt.threads = d.threads;
  opt.shards = d.shards;
  opt.batch = d.batch;
  opt.lossy = d.lossy;
  opt.epoch_period = d.churn ? d.epoch_period : 64;
  opt.max_epochs = d.max_epochs;
  return opt;
}

graph::Graph build_graph(const WorkloadDef& d) {
  graph::Graph cluster =
      graph::connected_gnp(d.cluster_size, d.cluster_p, d.topology_seed);
  if (d.clusters == 1) return cluster;
  return graph::disjoint_copies(cluster, d.clusters);
}

std::unique_ptr<graph::Scenario> build_scenario(const WorkloadDef& d) {
  return std::make_unique<graph::NodeChurnScenario>(
      build_graph(d), d.p_leave, d.p_join, d.churn_seed);
}

/// The degree reduction the workload's walks run on: of its graph, or of
/// the churn schedule's epoch-0 snapshot.
explore::ReducedGraph reduce_world(const WorkloadDef& d) {
  if (!d.churn) return explore::reduce_to_cubic(build_graph(d));
  return explore::reduce_to_cubic(build_scenario(d)->initial().snapshot());
}

// --- one world: inputs + engine -------------------------------------------

/// Held through pointers: the engine keeps the address of the graph, so
/// moving a World must not move the graph itself.
struct World {
  std::unique_ptr<graph::Graph> graph;         ///< static workloads
  std::unique_ptr<graph::Scenario> scenario;   ///< churn workload
  std::unique_ptr<core::TrafficEngine> engine;
};

World setup(const WorkloadDef& d, Tracer* tr, std::uint64_t parent) {
  World w;
  {
    ScopedSpan s(tr, "graph.build", parent);
    if (d.churn)
      w.scenario = build_scenario(d);
    else
      w.graph = std::make_unique<graph::Graph>(build_graph(d));
  }
  {
    ScopedSpan s(tr, "core.traffic.ctor", parent);
    w.engine = d.churn ? std::make_unique<core::TrafficEngine>(
                             *w.scenario, engine_options(d))
                       : std::make_unique<core::TrafficEngine>(
                             *w.graph, engine_options(d));
  }
  return w;
}

using Truth = std::vector<std::vector<std::uint32_t>>;

/// Component labels per epoch: the static graph's, or an independent
/// replay of the churn schedule indexed by DynamicGraph::epoch() — the
/// stamp a verdict's completion_epoch carries.  The stamp moves only when
/// an advance changed the topology, so it can lag the advance count.
/// Built from the workload definition, independently of the engine's world.
Truth ground_truth(const WorkloadDef& d) {
  if (!d.churn) return {graph::connected_components(build_graph(d))};
  Truth comps;
  auto replay = build_scenario(d);
  graph::DynamicGraph dg = replay->initial();
  comps.push_back(graph::connected_components(dg.snapshot()));
  for (std::uint64_t e = 0; e < d.max_epochs; ++e) {
    replay->advance(dg);
    if (dg.epoch() >= comps.size())
      comps.push_back(graph::connected_components(dg.snapshot()));
  }
  return comps;
}

/// Heap bytes in use (main arena + mmapped chunks), glibc.
double heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks) + static_cast<double>(mi.hblkhd);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Timing wrapper around the arrival stream.  A burst pulls half a million
/// arrivals in one round, so per-call spans would dwarf the trace: the
/// wrapper sums the time spent in next() and the round records it as one
/// packed child span (see run_rep).
class TimedArrivals final : public core::ArrivalSource {
 public:
  explicit TimedArrivals(core::ArrivalSource& inner) : inner_(inner) {}
  std::optional<core::SessionSpec> next() override {
    const auto t0 = Clock::now();
    std::optional<core::SessionSpec> spec = inner_.next();
    if (spec)
      ++pulled_;
    else
      done_ = true;
    busy_s_ += since(t0);
    return spec;
  }
  /// Time spent in next() since the last call.
  double take_busy_s() { return std::exchange(busy_s_, 0.0); }
  bool done() const { return done_; }
  std::uint64_t pulled() const { return pulled_; }

 private:
  core::ArrivalSource& inner_;
  double busy_s_ = 0.0;
  std::uint64_t pulled_ = 0;
  bool done_ = false;
};

struct Rep {
  std::vector<double> setup_s;
  double run_s = 0.0;
  Tally tally;
  std::uint64_t final_clock = 0;
  // Traced repetitions only.
  std::uint64_t rounds = 0;
  double in_flight_sum = 0.0;
  std::size_t in_flight_max = 0;
  double heap_growth = 0.0;
};

/// One repetition: set-up (d.setups_per_rep times, the last one kept), the
/// engine run from the first round to the drained engine, and the fold.
Rep run_rep(const WorkloadDef& d, std::uint64_t seed, const Truth& truth,
            Tracer* tr) {
  Rep rep;
  for (int i = 1; i < d.setups_per_rep; ++i) {
    const auto t0 = Clock::now();
    World discarded = setup(d, nullptr, 0);
    rep.setup_s.push_back(since(t0));
  }
  ScopedSpan root(tr, "rep");
  World w;
  {
    const auto t0 = Clock::now();
    ScopedSpan s(tr, "setup", root.id());
    w = setup(d, tr, s.id());
    rep.setup_s.push_back(since(t0));
  }
  core::TrafficEngine& engine = *w.engine;
  baselines::OpenLoopWorkload source(arrival_config(d, seed));
  if (tr == nullptr) {
    engine.attach_arrivals(source);
    const auto t0 = Clock::now();
    engine.run();
    rep.run_s = since(t0);
  } else {
    TimedArrivals traced(source);
    engine.attach_arrivals(traced);
    const double heap0 = heap_in_use();
    double heap_peak = heap0;
    ScopedSpan run(tr, "run", root.id());
    const auto t0 = Clock::now();
    while (engine.unfinished_count() > 0 || !traced.done() ||
           engine.session_count() < traced.pulled()) {
      ++rep.rounds;
      const std::uint64_t id =
          tr->open("core.traffic.round", run.id(), rep.rounds);
      engine.run_round();
      tr->close(id);
      // The round's next() calls, packed from the round's start: the
      // span's duration is their total, its position is not theirs.
      if (const double busy = traced.take_busy_s(); busy > 0.0) {
        const double start = tr->spans()[id - 1].start_s;
        tr->add({"baselines.arrivals", id, rep.rounds, start, start + busy});
      }
      rep.in_flight_sum += static_cast<double>(engine.unfinished_count());
      rep.in_flight_max =
          std::max(rep.in_flight_max, engine.unfinished_count());
      heap_peak = std::max(heap_peak, heap_in_use());
    }
    rep.run_s = since(t0);
    rep.heap_growth = heap_peak - heap0;
  }
  {
    ScopedSpan s(tr, "baselines.fold", root.id());
    rep.tally = fold(engine.reports(), truth);
  }
  rep.final_clock = engine.clock();
  return rep;
}

double median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  util::Samples s;
  for (double x : v) s.add(x);
  return s.median();
}

// --- the correctness gate over all repetitions -----------------------------

/// Gates every repetition into `res` (correct, attempted, failed, notes).
void gate_reps(const WorkloadDef& d, const std::vector<Rep>& reps,
               Result& res) {
  GateRules rules;
  rules.expected_sessions = d.sessions;
  rules.no_certificates = d.no_certificates;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Tally& t = reps[i].tally;
    res.attempted += t.sessions;
    std::vector<std::string> bad = gate_failures(t, rules);
    // The engine is deterministic: every repetition of one seed must fold
    // to the identical tally.
    if (bad.empty() && !(t == reps.front().tally))
      bad.push_back("repetition differs from the first one");
    if (!bad.empty()) {
      res.correct = false;
      res.failed += t.sessions;
      for (const std::string& b : bad)
        res.notes.push_back("gate: rep " + std::to_string(i) + ": " + b);
    }
  }
}

// --- end-to-end metrics ---------------------------------------------------

struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;
};

/// The highest percentile (of 50, 90, 99, 99.9, 99.99) with at least 10
/// samples beyond it.
Tail latency_tail(const util::Samples& s) {
  Tail tail;
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    const auto beyond = static_cast<std::size_t>(
        static_cast<double>(s.count()) * (1.0 - p / 100.0));
    if (beyond < 10) break;
    tail = {p, s.percentile(p), beyond};
  }
  return tail;
}

std::vector<std::pair<std::string, double>> end_to_end(
    const WorkloadDef& d, const std::vector<Rep>& reps,
    std::vector<std::string>& notes) {
  std::vector<double> setups, runs;
  for (const Rep& r : reps) {
    setups.insert(setups.end(), r.setup_s.begin(), r.setup_s.end());
    runs.push_back(r.run_s);
  }
  const Tally& t = reps.front().tally;
  const double run_s = median(runs);
  util::Samples lat;
  for (double x : t.latency_ticks) lat.add(x);
  const Tail tail = lat.count() ? latency_tail(lat) : Tail{};
  std::ostringstream note;
  note << "latency_tail_ticks is p" << tail.percentile << " over "
       << lat.count() << " delivered sessions (" << tail.beyond
       << " beyond it); " << reps.size() << " repetitions, " << setups.size()
       << " set-ups; ok=" << t.ok << " cert=" << t.cert << " exh=" << t.exh
       << " dep=" << t.dep << " uncert=" << t.uncert
       << " unsound=" << t.unsound << " sessions=" << t.sessions
       << "; run_s per repetition:";
  for (double r : runs) note << " " << r;
  notes.push_back(note.str());
  return {
      {"setup_s", median(setups)},
      {"run_s", run_s},
      {"sessions_per_s", static_cast<double>(d.sessions) / run_s},
      {"steps_per_s", static_cast<double>(t.frames) / run_s},
      {"peak_rss_mb", peak_rss_mb()},
      {"delivery_ratio",
       static_cast<double>(t.ok) / static_cast<double>(t.sessions)},
      {"latency_p50_ticks", lat.count() ? lat.percentile(50.0) : 0.0},
      {"latency_tail_ticks", tail.value},
      {"tx_per_delivery", t.ok ? static_cast<double>(t.frames) /
                                     static_cast<double>(t.ok)
                               : 0.0},
  };
}

// --- per-layer probes -----------------------------------------------------

/// The first `count` specs of the workload's own stream.
std::vector<core::SessionSpec> stream_prefix(const WorkloadDef& d,
                                             std::uint64_t seed,
                                             std::size_t count) {
  baselines::OpenLoopWorkload src(arrival_config(d, seed));
  std::vector<core::SessionSpec> out;
  while (out.size() < count) {
    std::optional<core::SessionSpec> s = src.next();
    if (!s) break;
    out.push_back(*s);
  }
  return out;
}

/// MultiWalkArena::step_block over `walks` at a fixed budget, 1 thread,
/// until every walk finished or `cap_s` elapsed.  Returns steps/s.
double kernel_rate(const explore::ReducedGraph& net,
                   const explore::ExplorationSequence& seq,
                   const std::vector<core::SessionSpec>& walks,
                   std::uint64_t budget, double cap_s) {
  core::MultiWalkArena arena(net, seq);
  std::vector<std::size_t> active;
  active.reserve(walks.size());
  for (const core::SessionSpec& s : walks)
    active.push_back(arena.admit(s.s, s.t));
  const auto t0 = Clock::now();
  while (!active.empty() && since(t0) < cap_s) {
    arena.step_block(active.data(), active.size(), budget);
    std::erase_if(active, [&](std::size_t w) { return arena.finished(w); });
  }
  const double elapsed = since(t0);
  double steps = 0.0;
  for (std::size_t w = 0; w < arena.size(); ++w)
    steps += static_cast<double>(arena.transmissions(w));
  return steps / elapsed;
}

/// Nanoseconds per symbol of one kSymbolWindow-symbol fill() at scattered
/// offsets of the sequence.
double fill_ns_per_symbol(const explore::ExplorationSequence& seq,
                          double cap_s) {
  constexpr std::uint64_t kWindow = core::MultiWalkArena::kSymbolWindow;
  std::vector<explore::Symbol> buf(kWindow);
  const std::uint64_t span =
      seq.length() > kWindow ? seq.length() - kWindow : 1;
  std::uint64_t calls = 0;
  const auto t0 = Clock::now();
  do {
    for (int k = 0; k < 1024; ++k, ++calls) {
      const std::uint64_t i = 1 + util::counter_hash(0xf111, calls) % span;
      seq.fill(i, std::min<std::uint64_t>(kWindow, seq.length()), buf.data());
    }
  } while (since(t0) < cap_s);
  const double elapsed = since(t0);
  return elapsed * 1e9 /
         (static_cast<double>(calls) *
          static_cast<double>(std::min<std::uint64_t>(kWindow, seq.length())));
}

struct LossyProbe {
  util::Samples sample_ms, ctor_ms, heap_mb, hop_us;
};

/// Builds lossy sessions of the lossy workload `d` the way the engine does
/// for session id `id` (counter_hash(net_seed, id), counter_hash(chaos_seed,
/// id)) and times the public calls: FaultPlan::sample, the session
/// constructor, and its reliable hops.  `net`/`seq` are d's reduced graph
/// and sequence (static), or `scenario` its churn schedule.  A workload
/// without chaos samples lossy-chaos-clusters' chaos config on its graph.
LossyProbe probe_lossy(const WorkloadDef& d, std::uint64_t seed,
                       const explore::ReducedGraph& net,
                       const explore::ExplorationSequence& seq,
                       const graph::Scenario* scenario, Tracer& tr,
                       std::uint64_t parent) {
  LossyProbe p;
  const core::LossyTrafficConfig cfg = *d.lossy;
  const net::ChaosConfig chaos =
      cfg.chaos ? *cfg.chaos : *chaos_channel(seed).chaos;
  std::optional<graph::DynamicGraph> dg;
  std::unique_ptr<graph::Scenario> replay;
  if (scenario) {
    replay = scenario->fresh();
    dg.emplace(replay->initial());
  }
  const std::vector<core::SessionSpec> specs =
      stream_prefix(d, seed, d.lossy_probes);
  for (std::size_t id = 0; id < specs.size(); ++id) {
    const core::SessionSpec& spec = specs[id];
    net::FaultPlan plan;
    {
      ScopedSpan s(&tr, "net.faults.sample", parent);
      const auto t0 = Clock::now();
      plan = net::FaultPlan::sample(net.cubic, chaos,
                                    util::counter_hash(cfg.chaos_seed, id));
      p.sample_ms.add(since(t0) * 1e3);
    }
    const double heap0 = heap_in_use();
    std::uint64_t hops = 0;
    if (!scenario) {
      core::LossyRouteOptions o;
      o.link = cfg.link;
      o.reliable = cfg.reliable;
      o.window = cfg.window;
      o.arq = cfg.arq;
      o.net_seed = util::counter_hash(cfg.net_seed, id);
      o.faults = cfg.faults;
      if (cfg.chaos) o.faults.merge(plan);
      std::optional<core::LossyRouteSession> session;
      {
        ScopedSpan s(&tr, "core.lossy_route.ctor", parent);
        const auto t0 = Clock::now();
        session.emplace(net, seq, spec.s, spec.t, o);
        p.ctor_ms.add(since(t0) * 1e3);
      }
      p.heap_mb.add((heap_in_use() - heap0) / (1024.0 * 1024.0));
      ScopedSpan s(&tr, "core.lossy_route.hops", parent);
      const auto t0 = Clock::now();
      while (!session->finished()) session->step();
      hops = session->hops();
      if (hops) p.hop_us.add(since(t0) * 1e6 / static_cast<double>(hops));
    } else {
      core::LossyDynamicOptions o;
      o.link = cfg.link;
      o.reliable = cfg.reliable;
      o.window = cfg.window;
      o.arq = cfg.arq;
      o.seq_seed = kSeqSeed;
      o.net_seed = util::counter_hash(cfg.net_seed, id);
      o.one_sided_down = cfg.one_sided_down;
      o.faults = cfg.faults;
      o.chaos = cfg.chaos;
      o.chaos_seed = util::counter_hash(cfg.chaos_seed, id);
      std::optional<core::LossyDynamicRouteSession> session;
      {
        ScopedSpan s(&tr, "core.lossy_route.ctor", parent);
        const auto t0 = Clock::now();
        session.emplace(*dg, spec.s, spec.t, o);
        p.ctor_ms.add(since(t0) * 1e3);
      }
      p.heap_mb.add((heap_in_use() - heap0) / (1024.0 * 1024.0));
      ScopedSpan s(&tr, "core.lossy_route.hops", parent);
      const auto t0 = Clock::now();
      // The epoch never moves here: a budget-spent hop blocks for good.
      while (!session->finished() && !session->blocked()) session->step();
      hops = session->hops();
      if (hops) p.hop_us.add(since(t0) * 1e6 / static_cast<double>(hops));
    }
  }
  return p;
}

struct EpochProbe {
  util::Samples advance_us, reduce_us;
};

/// Replays the churn workload `d`'s schedule (repeatedly, until `cap_s`)
/// and times each Scenario::advance and the reduce_to_cubic of the
/// snapshot it commits.
EpochProbe probe_epochs(const WorkloadDef& d, const graph::Scenario& scenario,
                        double cap_s, Tracer& tr, std::uint64_t parent) {
  EpochProbe p;
  const auto start = Clock::now();
  do {
    std::unique_ptr<graph::Scenario> replay = scenario.fresh();
    graph::DynamicGraph dg = replay->initial();
    for (std::uint64_t e = 0; e < d.max_epochs; ++e) {
      {
        ScopedSpan s(&tr, "graph.epoch_advance", parent);
        const auto t0 = Clock::now();
        replay->advance(dg);
        p.advance_us.add(since(t0) * 1e6);
      }
      ScopedSpan s(&tr, "explore.snapshot_reduce", parent);
      const auto t0 = Clock::now();
      const explore::ReducedGraph r = explore::reduce_to_cubic(dg.snapshot());
      p.reduce_us.add(since(t0) * 1e6);
    }
  } while (since(start) < cap_s);
  return p;
}

std::vector<double> span_durations(const std::vector<Span>& spans,
                                   const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (s.name == name) out.push_back(s.duration());
  return out;
}

/// Sums `name` spans (durations or self times) per traced repetition.
std::vector<double> per_rep_sums(const std::vector<Span>& spans,
                                 const std::vector<double>& value,
                                 const std::string& name) {
  std::vector<double> sums;
  std::uint64_t rep_id = 0;
  std::vector<std::uint64_t> rep_of(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name == "rep" && s.parent == 0) {
      rep_of[i] = ++rep_id;
      sums.push_back(0.0);
    } else if (s.parent > 0) {
      rep_of[i] = rep_of[s.parent - 1];
    }
    if (s.name == name && rep_of[i] > 0) sums[rep_of[i] - 1] += value[i];
  }
  return sums;
}

// --- the two run modes ----------------------------------------------------

Result run_plain(const WorkloadDef& d, const Options& o) {
  const Truth truth = ground_truth(d);
  std::vector<Rep> reps;
  const auto t0 = Clock::now();
  do {
    const auto r0 = Clock::now();
    reps.push_back(run_rep(d, o.seed, truth, nullptr));
    // Start another repetition only if it should end within the budget.
    if (since(t0) + since(r0) > o.seconds) break;
  } while (true);
  Result res;
  gate_reps(d, reps, res);
  res.metrics = end_to_end(d, reps, res.notes);
  return res;
}

Result run_traced(const WorkloadDef& d, const Options& o) {
  Tracer tr;
  const Truth truth = ground_truth(d);
  std::vector<Rep> plain, traced;
  const auto t0 = Clock::now();
  // Untraced and traced repetitions alternate, so the tracing overhead is
  // measured under the same conditions; about half the budget goes to
  // them and the rest to the layer probes.
  do {
    const auto r0 = Clock::now();
    plain.push_back(run_rep(d, o.seed, truth, nullptr));
    traced.push_back(run_rep(d, o.seed, truth, &tr));
    if (since(t0) + since(r0) > 0.5 * o.seconds) break;
  } while (true);
  Result res;
  gate_reps(d, plain, res);
  gate_reps(d, traced, res);
  if (!(plain.front().tally == traced.front().tally)) {
    res.correct = false;
    res.notes.push_back("gate: traced and untraced runs disagree");
  }

  // Layer probes, each timing public calls on this workload's own inputs.
  // The lossy and epoch layers are probed on the inputs of the workload
  // that exercises them (lossy-chaos-clusters, lossy-churn) when this one
  // does not: on a 2^20-node graph one FaultPlan::sample or one
  // NodeChurnScenario::advance alone would take tens of seconds.
  const std::uint64_t probe = tr.open("probes");
  util::Samples reduce_s;
  explore::ReducedGraph net;
  const auto r0 = Clock::now();
  do {
    const graph::Graph g = d.churn ? build_scenario(d)->initial().snapshot()
                                   : build_graph(d);
    ScopedSpan s(&tr, "explore.reduce", probe);
    const auto t0 = Clock::now();
    net = explore::reduce_to_cubic(g);
    reduce_s.add(since(t0));
  } while (reduce_s.count() < 3 || since(r0) < d.probe_cap_s / 4);
  const auto seq = explore::cached_standard_ues(
      std::max<NodeId>(net.cubic.num_nodes(), 1), kSeqSeed);
  double fill_ns = 0.0;
  {
    ScopedSpan s(&tr, "explore.fill", probe);
    fill_ns = fill_ns_per_symbol(*seq, d.probe_cap_s / 4);
  }
  const std::vector<core::SessionSpec> walks =
      stream_prefix(d, o.seed, d.kernel_walks);
  double full = 0.0, budget1 = 0.0;
  {
    ScopedSpan s(&tr, "core.multi_walk.full", probe);
    full = kernel_rate(net, *seq, walks, d.batch, d.probe_cap_s);
  }
  {
    ScopedSpan s(&tr, "core.multi_walk.budget1", probe);
    budget1 = kernel_rate(net, *seq, walks, 1, d.probe_cap_s);
  }
  LossyProbe lp;
  if (d.lossy) {
    const std::unique_ptr<graph::Scenario> sc =
        d.churn ? build_scenario(d) : nullptr;
    lp = probe_lossy(d, o.seed, net, *seq, sc.get(), tr, probe);
  } else {
    const WorkloadDef ref = make_def("lossy-chaos-clusters", o.seed, o.tiny);
    const explore::ReducedGraph ref_net = reduce_world(ref);
    const auto ref_seq = explore::cached_standard_ues(
        std::max<NodeId>(ref_net.cubic.num_nodes(), 1), kSeqSeed);
    lp = probe_lossy(ref, o.seed, ref_net, *ref_seq, nullptr, tr, probe);
  }
  const WorkloadDef churn =
      d.churn ? d : make_def("lossy-churn", o.seed, o.tiny);
  const EpochProbe ep = probe_epochs(churn, *build_scenario(churn),
                                     d.probe_cap_s / 4, tr, probe);
  tr.close(probe);

  const std::vector<Span>& spans = tr.spans();
  const std::vector<double> self = self_times(spans);
  std::vector<double> dur(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) dur[i] = spans[i].duration();

  const Rep& first = traced.front();
  const Tally& t = first.tally;
  std::vector<double> plain_run, traced_run, heap_growth;
  for (const Rep& r : plain) plain_run.push_back(r.run_s);
  for (const Rep& r : traced) {
    traced_run.push_back(r.run_s);
    heap_growth.push_back(r.heap_growth);
  }
  util::Samples round_ms;
  for (double x : span_durations(spans, "core.traffic.round"))
    round_ms.add(x * 1e3);
  const double plain_steps = static_cast<double>(t.frames) / median(plain_run);
  // Perfect-link workloads: every frame is one hop, and a delivered
  // session's virtual time is its latency in ticks.
  const double hops = d.lossy ? static_cast<double>(t.hops)
                              : static_cast<double>(t.frames);
  double vtime = static_cast<double>(t.vtime_delivered);
  if (!d.lossy) {
    vtime = 0.0;
    for (double x : t.latency_ticks) vtime += x;
  }
  auto pct = [](const util::Samples& s, double p) {
    return s.count() ? s.percentile(p) : 0.0;
  };

  res.metrics = {
      {"graph.build_s", median(span_durations(spans, "graph.build"))},
      {"explore.reduce_s", reduce_s.median()},
      {"explore.cubic_nodes", static_cast<double>(net.cubic.num_nodes())},
      {"core.traffic.ctor_s",
       median(span_durations(spans, "core.traffic.ctor"))},
      {"core.traffic.rounds", static_cast<double>(first.rounds)},
      {"core.traffic.slots_per_round",
       static_cast<double>(first.final_clock) /
           static_cast<double>(first.rounds)},
      {"core.traffic.round_ms_p50", pct(round_ms, 50.0)},
      {"core.traffic.round_ms_p99", pct(round_ms, 99.0)},
      {"core.traffic.round_self_s",
       median(per_rep_sums(spans, self, "core.traffic.round"))},
      {"explore.fill_ns_per_symbol", fill_ns},
      {"core.multi_walk.steps_per_s_full", full},
      {"core.multi_walk.steps_per_s_budget1", budget1},
      {"core.multi_walk.engine_efficiency", plain_steps / full},
      {"core.traffic.in_flight_mean",
       first.in_flight_sum / static_cast<double>(first.rounds)},
      {"core.traffic.in_flight_max", static_cast<double>(first.in_flight_max)},
      {"core.traffic.rss_bytes_per_session",
       median(heap_growth) / static_cast<double>(d.sessions)},
      {"net.faults.sample_ms", pct(lp.sample_ms, 50.0)},
      {"core.lossy_route.ctor_ms_p50", pct(lp.ctor_ms, 50.0)},
      {"core.lossy_route.ctor_ms_p99", pct(lp.ctor_ms, 99.0)},
      {"core.lossy_route.heap_mb_per_session", pct(lp.heap_mb, 50.0)},
      {"core.lossy_route.restarts", static_cast<double>(t.restarts)},
      {"explore.snapshot_reduce_us", pct(ep.reduce_us, 50.0)},
      {"graph.epoch_advance_us", pct(ep.advance_us, 50.0)},
      {"core.lossy_route.hop_us", pct(lp.hop_us, 50.0)},
      {"net.wire_frames_per_hop", static_cast<double>(t.frames) / hops},
      {"net.retransmits_per_hop", static_cast<double>(t.retransmits) / hops},
      {"net.vtime_per_delivery",
       t.ok ? vtime / static_cast<double>(t.ok) : 0.0},
      {"baselines.arrivals_s",
       median(per_rep_sums(spans, dur, "baselines.arrivals"))},
      {"baselines.fold_s", median(span_durations(spans, "baselines.fold"))},
      {"trace.overhead_s", median(traced_run) - median(plain_run)},
  };
  std::ostringstream note;
  note << "traced " << traced.size() << " and untraced " << plain.size()
       << " repetitions: run_s " << median(traced_run) << " vs "
       << median(plain_run) << "; " << spans.size() << " spans";
  res.notes.push_back(note.str());
  res.spans = spans;
  return res;
}

const std::string& unit_of(const std::string& name) {
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()})
    for (const MetricDef& m : *defs)
      if (m.name == name) return m.unit;
  throw std::logic_error("unit_of: unknown metric " + name);
}

}  // namespace

Result run(const Options& options) {
  const WorkloadDef d = make_def(options.workload, options.seed, options.tiny);
  return options.trace ? run_traced(d, options) : run_plain(d, options);
}

std::string result_json(const Result& r) {
  std::ostringstream out;
  out << std::setprecision(17) << "{\"correct\": "
      << (r.correct ? "true" : "false") << ", \"attempted\": " << r.attempted
      << ", \"failed\": " << r.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& [name, value] = r.metrics[i];
    out << (i ? ", " : "") << "\"" << name << "\": {\"value\": " << value
        << ", \"unit\": \"" << unit_of(name) << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
