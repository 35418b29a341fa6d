// Deterministic event-driven simulator of an asynchronous lossy network.
//
// Everything above this layer (Transport, TrafficEngine) runs on a
// synchronous slotted clock over perfect links; the paper's
// setting is the opposite — frames are late, lost, duplicated, and links
// die one direction at a time.  EventSim supplies that regime while keeping
// the repo's deterministic-replay contract (ROADMAP): the whole schedule is
// a PURE FUNCTION of (seed, API-call sequence).
//
//   * The event queue is a binary heap keyed (time, seq), where seq is the
//     push-order counter — ties never depend on heap internals or pointer
//     values, so two process runs pop identical sequences.
//   * Every channel draw for transmission #k over directed link l comes
//     from Pcg32(counter_hash(counter_hash(seed, l), k)) — per-(link,
//     event) streams, never a shared one (the PR 3 RNG convention), so a
//     replay that re-issues the same sends re-draws the same losses,
//     latencies and duplicates.
//
// Channel model: ONE LinkModel per simulator, applied to every DIRECTED
// link (departure half-edge (u, out_port); the reverse direction
// (v, in_port) is an independent link with its own draws and up/down
// flag) — the one-loss-probability-per-transmission channel of the
// comparison baselines.  The links are numbered by
// graph::Graph::half_edge_index, so the simulator keeps no copy of the
// graph's layout, and its fault state is sparse: only the links that are
// down and the nodes that crashed or recovered, so building one costs O(1)
// in the graph's size:
//   * latency uniform in [latency_min, latency_max] time units;
//   * loss: each frame independently dropped with probability `loss`;
//   * duplication: a surviving frame spawns a second, independently-delayed
//     copy with probability `dup` (the copy is flagged `duplicate`);
//   * corruption: each DELIVERED copy independently arrives damaged with
//     probability `corrupt` — one random bit of its frame id is flipped and
//     the event is flagged `corrupted` (the frame check sequence failing);
//     the corruption draws come strictly AFTER the loss / latency / dup
//     draws of the send, so at corrupt = 0 the per-(link, event) stream is
//     consumed exactly as before this knob existed (the PR 6/7 replay
//     traces hold byte for byte — property P11);
//   * up/down: set_link_up(u, p, false) kills the u->v direction ONLY
//     (hnetd's one-sided net_sim_set_connected flip).  Frames sent into a
//     down link are lost at departure; frames already in flight when the
//     link goes down die mid-flight (dropped at their delivery instant).
//
// Node crash/recovery (the fault-injection layer, DESIGN.md §2.12): a
// crashed node neither transmits (sends drop at departure, before any
// channel draw) nor receives (arrivals drop at their delivery instant);
// timers keep firing — they model the DRIVING protocol loop, not the
// node's volatile state.  Each recovery bumps the node's crash epoch
// (crash_epochs), the generation stamp the ARQ layers use to wipe volatile
// receiver state (amnesia).  Faults can be flipped directly
// (set_node_crashed) or scheduled into the event queue at exact virtual
// times (schedule_fault — the FaultPlan backend, net/faults.h), so a crash
// window can open and close in the middle of one reliable transfer.
//
// EventSim moves frames and timers; it owns no protocol logic.  The
// ack/retransmit layer is net/window.h (selective repeat, with
// stop-and-wait as its window-1 configuration), and the certificate
// semantics of routing over all of this is DESIGN.md §2.10.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "graph/graph.h"
#include "net/transport.h"

namespace uesr::net {

/// Virtual time: abstract units; only ordering and sums matter.
using SimTime = std::uint64_t;

/// The channel model every directed link of an EventSim shares.
struct LinkModel {
  SimTime latency_min = 1;  ///< inclusive lower latency bound (>= 0)
  SimTime latency_max = 1;  ///< inclusive upper bound (>= latency_min)
  double loss = 0.0;        ///< P(frame dropped), in [0, 1]
  double dup = 0.0;         ///< P(second copy delivered), in [0, 1]
  double corrupt = 0.0;     ///< P(delivered copy arrives damaged), in [0, 1]
};

enum class SimEventKind : std::uint8_t { kArrival, kTimer, kFault };

/// One state flip applied at an exact virtual time (see schedule_fault).
struct FaultAction {
  enum class Kind : std::uint8_t {
    kCrash,          ///< node goes down (drops sends and arrivals)
    kRecover,        ///< node comes back; bumps its crash epoch (amnesia)
    kLinkDown,       ///< one-sided link kill, as set_link_up(u, p, false)
    kLinkUp,         ///< one-sided link heal
    kGlobalCorrupt,  ///< set the channel model's `corrupt` level
  };
  Kind kind = Kind::kCrash;
  graph::NodeId node = 0;  ///< kCrash / kRecover target
  graph::Port port = 0;    ///< kLinkDown / kLinkUp: half-edge (node, port)
  double corrupt = 0.0;    ///< kGlobalCorrupt level, in [0, 1]

  friend bool operator==(const FaultAction&, const FaultAction&) = default;
};

/// One popped event.  For kArrival, (node, port) is where the frame lands
/// and (from, from_port) the departure half-edge it was sent on; frame_id
/// is the sender's tag, `duplicate` marks a channel-made extra copy and
/// `corrupted` a damaged one (the CRC verdict the ARQ layers honour).
struct SimEvent {
  SimEventKind kind = SimEventKind::kArrival;
  SimTime time = 0;
  std::uint64_t seq = 0;  ///< push-order id (the heap tiebreak)
  graph::NodeId node = 0;
  graph::Port port = 0;
  graph::NodeId from = 0;
  graph::Port from_port = 0;
  std::uint64_t frame_id = 0;
  bool duplicate = false;
  bool corrupted = false;
  std::uint64_t timer_id = 0;
};

class EventSim {
 public:
  /// The graph must outlive the simulator.  `model` applies to every
  /// directed link; throws on an invalid model.
  EventSim(const graph::Graph& g, std::uint64_t seed, LinkModel model = {});

  const graph::Graph& graph() const { return *graph_; }
  std::uint64_t seed() const { return seed_; }
  /// Virtual clock: the time of the last popped event.
  SimTime now() const { return now_; }

  /// One-sided connectivity flip: disables/enables ONLY the direction
  /// departing (u, p).  In-flight frames of a downed direction die
  /// mid-flight.
  void set_link_up(graph::NodeId u, graph::Port p, bool up);
  bool link_up(graph::NodeId u, graph::Port p) const;

  /// Crash / recover a node immediately.  Crashed nodes drop sends at
  /// departure (before any channel draw — replay-safe) and arrivals at
  /// their delivery instant; each up-transition bumps the crash epoch.
  void set_node_crashed(graph::NodeId v, bool crashed);
  bool node_crashed(graph::NodeId v) const;
  /// Recoveries seen so far at v — the amnesia generation: volatile ARQ
  /// state stamped with an older epoch is gone (net/window.h).
  std::uint64_t crash_epochs(graph::NodeId v) const;

  /// Schedules `action` to apply at now() + delay, interleaved with
  /// arrivals/timers in exact (time, push-order) order; next() applies it
  /// silently (never returns it).  The FaultPlan backend (net/faults.h).
  void schedule_fault(SimTime delay, const FaultAction& action);

  /// Dense index of the directed link departing (u, p) in
  /// [0, graph().num_half_edges()) — graph().half_edge_index(u, p), the
  /// key of the link's per-(link, event) channel stream.
  std::uint64_t link_index(graph::NodeId u, graph::Port p) const;

  /// Puts one frame on the directed link (from, out_port) at now().
  /// Counts one transmission unconditionally — lost frames were really
  /// sent.  The channel then draws loss / latency / duplication from the
  /// (seed, link, event)-keyed stream.
  void send(graph::NodeId from, graph::Port out_port, std::uint64_t frame_id);

  /// Schedules a timer event at now() + delay carrying `timer_id`.
  void set_timer(SimTime delay, std::uint64_t timer_id);

  /// Lazy-cancels the queued timer carrying `timer_id`: the entry stays in
  /// the heap until popped (and is then consumed silently) or until the
  /// periodic compaction sweeps it out — so pending() stays bounded by
  /// ~2x the live events over any run length, however many stale ARQ
  /// timers a chaos run abandons.  At most one queued timer may carry the
  /// id; cancelling an id that is not queued poisons its next use.
  void cancel_timer(std::uint64_t timer_id);

  /// Pops the next deliverable event in (time, seq) order, advancing
  /// now().  Frames whose link direction is down at their delivery instant
  /// die silently (counted in frames_died_midflight), arrivals at crashed
  /// nodes drop (frames_crash_dropped), cancelled timers are consumed and
  /// scheduled faults applied — the scan continues past all of them.
  /// Returns nullopt when the queue is empty.
  std::optional<SimEvent> next();

  /// Events (arrivals + timers + faults) still queued, cancelled-but-not-
  /// yet-compacted timers included.
  std::size_t pending() const { return queue_.size(); }

  // --- wire accounting ----------------------------------------------------
  std::uint64_t transmissions() const { return transmissions_; }
  std::uint64_t frames_lost() const { return frames_lost_; }
  std::uint64_t frames_duplicated() const { return frames_duplicated_; }
  std::uint64_t frames_died_midflight() const { return frames_died_; }
  std::uint64_t frames_corrupted() const { return frames_corrupted_; }
  /// Frames dropped by a crashed endpoint (at departure or delivery).
  std::uint64_t frames_crash_dropped() const { return frames_crashed_; }
  /// Arrival events actually handed to the caller by next().
  std::uint64_t frames_delivered() const { return frames_delivered_; }
  std::uint64_t timers_cancelled() const { return timers_cancelled_; }

  // --- deterministic replay trace -----------------------------------------
  /// Records one line per channel decision (send outcome) and per popped
  /// event, up to `limit` lines.  Lines are pure functions of the seed and
  /// the call sequence — the replay regression tests compare them byte for
  /// byte across runs.  Off by default (limit 0).
  void enable_trace(std::size_t limit) { trace_limit_ = limit; }
  const std::vector<std::string>& trace() const { return trace_; }

 private:
  struct Queued {
    SimTime time = 0;
    std::uint64_t seq = 0;
    SimEvent event;
  };
  struct QueuedLater {
    bool operator()(const Queued& a, const Queued& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  std::uint64_t link_id(graph::NodeId u, graph::Port p) const {
    return graph_->half_edge_index(u, p);
  }
  void check_half_edge(graph::NodeId u, graph::Port p, const char* who) const;
  void check_node(graph::NodeId v, const char* who) const;
  void push(SimTime at, SimEvent ev);
  void apply_fault(const FaultAction& f);
  void record(std::string line);

  const graph::Graph* graph_;
  std::uint64_t seed_;
  LinkModel model_;
  std::set<std::uint64_t> down_;     ///< ids of the links that are down
  std::set<graph::NodeId> crashed_;  ///< the nodes that are down
  /// Recovery counts of the nodes that recovered at least once.
  std::map<graph::NodeId, std::uint64_t> crash_epochs_;

  /// Binary heap in (time, seq) order (std::push_heap/pop_heap) — a plain
  /// vector so lazy-cancel compaction can filter it in place.
  std::vector<Queued> queue_;
  std::unordered_set<std::uint64_t> cancelled_;  ///< lazily-cancelled ids
  std::vector<FaultAction> fault_actions_;  ///< payloads of queued kFault
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;   ///< push-order event ids
  std::uint64_t next_send_ = 0;  ///< per-send channel-draw counter

  std::uint64_t transmissions_ = 0;
  std::uint64_t frames_lost_ = 0;
  std::uint64_t frames_duplicated_ = 0;
  std::uint64_t frames_died_ = 0;
  std::uint64_t frames_corrupted_ = 0;
  std::uint64_t frames_crashed_ = 0;
  std::uint64_t frames_delivered_ = 0;
  std::uint64_t timers_cancelled_ = 0;

  std::size_t trace_limit_ = 0;
  std::vector<std::string> trace_;
};

/// One-line rendering of an event ("t=12 seq=3 arr node=4 port=1 ...") —
/// the unit the replay regression tests serialize and diff.
std::string to_string(const SimEvent& ev);
/// One-line rendering of a fault action ("crash v=3", "linkdown 2.1", ...).
std::string to_string(const FaultAction& f);

}  // namespace uesr::net
