#include "net/sim.h"

#include <algorithm>
#include <stdexcept>

#include "util/rng.h"

namespace uesr::net {

using graph::NodeId;
using graph::Port;

namespace {

void validate_model(const LinkModel& m, const char* who) {
  if (m.latency_max < m.latency_min)
    throw std::invalid_argument(std::string(who) +
                                ": latency_max < latency_min");
  if (m.loss < 0.0 || m.loss > 1.0)
    throw std::invalid_argument(std::string(who) + ": loss outside [0, 1]");
  if (m.dup < 0.0 || m.dup > 1.0)
    throw std::invalid_argument(std::string(who) + ": dup outside [0, 1]");
  if (m.corrupt < 0.0 || m.corrupt > 1.0)
    throw std::invalid_argument(std::string(who) +
                                ": corrupt outside [0, 1]");
}

SimTime draw_latency(const LinkModel& m, util::Pcg32& rng) {
  const SimTime span = m.latency_max - m.latency_min;
  if (span == 0) return m.latency_min;
  // Spans beyond 32 bits never occur in practice; clamp defensively.
  const auto bound = static_cast<std::uint32_t>(
      span >= 0xffffffffULL ? 0xffffffffUL : span + 1);
  return m.latency_min + rng.next_below(bound);
}

/// The seeded bit-flip of a corrupted copy: one random bit of the frame id
/// (the payload this simulator carries) is damaged; the `corrupted` flag is
/// the frame check sequence catching it.
void damage(SimEvent& ev, util::Pcg32& rng) {
  ev.frame_id ^= 1ULL << rng.next_below(64);
  ev.corrupted = true;
}

}  // namespace

EventSim::EventSim(const graph::Graph& g, std::uint64_t seed, LinkModel model)
    : graph_(&g), seed_(seed), model_(model) {
  validate_model(model, "EventSim");
}

void EventSim::check_half_edge(NodeId u, Port p, const char* who) const {
  if (u >= graph_->num_nodes())
    throw std::invalid_argument(std::string(who) + ": node out of range");
  if (p >= graph_->degree(u))
    throw std::invalid_argument(std::string(who) + ": port out of range");
}

void EventSim::check_node(NodeId v, const char* who) const {
  if (v >= graph_->num_nodes())
    throw std::invalid_argument(std::string(who) + ": node out of range");
}

void EventSim::set_link_up(NodeId u, Port p, bool up) {
  check_half_edge(u, p, "EventSim::set_link_up");
  if (up)
    down_.erase(link_id(u, p));
  else
    down_.insert(link_id(u, p));
}

bool EventSim::link_up(NodeId u, Port p) const {
  check_half_edge(u, p, "EventSim::link_up");
  return down_.count(link_id(u, p)) == 0;
}

void EventSim::set_node_crashed(NodeId v, bool crashed) {
  check_node(v, "EventSim::set_node_crashed");
  if (crashed)
    crashed_.insert(v);
  else if (crashed_.erase(v))
    ++crash_epochs_[v];  // recovery: amnesia
}

bool EventSim::node_crashed(NodeId v) const {
  check_node(v, "EventSim::node_crashed");
  return crashed_.count(v) != 0;
}

std::uint64_t EventSim::crash_epochs(NodeId v) const {
  check_node(v, "EventSim::crash_epochs");
  const auto it = crash_epochs_.find(v);
  return it == crash_epochs_.end() ? 0 : it->second;
}

std::uint64_t EventSim::link_index(NodeId u, Port p) const {
  check_half_edge(u, p, "EventSim::link_index");
  return link_id(u, p);
}

void EventSim::record(std::string line) {
  if (trace_.size() < trace_limit_) trace_.push_back(std::move(line));
}

void EventSim::push(SimTime at, SimEvent ev) {
  ev.time = at;
  ev.seq = next_seq_++;
  queue_.push_back(Queued{at, ev.seq, ev});
  std::push_heap(queue_.begin(), queue_.end(), QueuedLater{});
}

void EventSim::send(NodeId from, Port out_port, std::uint64_t frame_id) {
  check_half_edge(from, out_port, "EventSim::send");
  const std::uint64_t link = link_id(from, out_port);
  const std::uint64_t event = next_send_++;
  ++transmissions_;
  auto stamp = [&](const char* outcome) {
    if (trace_limit_ == 0) return;
    record("S t=" + std::to_string(now_) + " ev=" + std::to_string(event) +
           " link=" + std::to_string(from) + "." + std::to_string(out_port) +
           " f=" + std::to_string(frame_id) + " " + outcome);
  };
  if (crashed_.count(from)) {  // a crashed node transmits nothing (no draws)
    ++frames_crashed_;
    stamp("crash");
    return;
  }
  if (down_.count(link)) {  // sent into a dead direction: nothing receives
    ++frames_lost_;
    stamp("down");
    return;
  }
  // Per-(link, event) stream: the schedule is a pure function of the seed
  // and the call sequence (ROADMAP's deterministic-replay contract).  Draw
  // order is fixed: loss, latency, dup, dup-latency, THEN the corruption
  // draws — so at corrupt = 0 the stream is consumed exactly as pre-fault
  // replays did (P11).
  util::Pcg32 rng(util::counter_hash(util::counter_hash(seed_, link), event));
  if (model_.loss > 0.0 && rng.next_double() < model_.loss) {
    ++frames_lost_;
    stamp("lost");
    return;
  }
  const graph::HalfEdge far = graph_->rotate(from, out_port);
  SimEvent ev;
  ev.kind = SimEventKind::kArrival;
  ev.node = far.node;
  ev.port = far.port;
  ev.from = from;
  ev.from_port = out_port;
  ev.frame_id = frame_id;
  const SimTime latency = draw_latency(model_, rng);
  SimEvent dup_ev;
  SimTime dup_latency = 0;
  const bool spawn_dup = model_.dup > 0.0 && rng.next_double() < model_.dup;
  if (spawn_dup) {
    dup_ev = ev;
    dup_ev.duplicate = true;
    dup_latency = draw_latency(model_, rng);
  }
  if (model_.corrupt > 0.0 && rng.next_double() < model_.corrupt) {
    ++frames_corrupted_;
    damage(ev, rng);
  }
  if (spawn_dup && model_.corrupt > 0.0 && rng.next_double() < model_.corrupt) {
    ++frames_corrupted_;
    damage(dup_ev, rng);
  }
  push(now_ + latency, ev);
  stamp(ev.corrupted ? "sent corrupt" : "sent");
  if (spawn_dup) {
    ++frames_duplicated_;
    push(now_ + dup_latency, dup_ev);
    stamp(dup_ev.corrupted ? "dup corrupt" : "dup");
  }
}

void EventSim::set_timer(SimTime delay, std::uint64_t timer_id) {
  SimEvent ev;
  ev.kind = SimEventKind::kTimer;
  ev.timer_id = timer_id;
  push(now_ + delay, ev);
}

void EventSim::cancel_timer(std::uint64_t timer_id) {
  cancelled_.insert(timer_id);
  // Compaction keeps the heap (and pending()) bounded by ~2x the live
  // events: once cancelled entries dominate, filter them out in place and
  // re-heapify.  Pop order is the TOTAL order (time, seq), so rebuilding
  // the heap never changes what next() returns — determinism holds.
  if (cancelled_.size() >= 64 && cancelled_.size() * 2 > queue_.size()) {
    auto dead = [&](const Queued& q) {
      if (q.event.kind != SimEventKind::kTimer) return false;
      const auto it = cancelled_.find(q.event.timer_id);
      if (it == cancelled_.end()) return false;
      cancelled_.erase(it);
      ++timers_cancelled_;
      return true;
    };
    queue_.erase(std::remove_if(queue_.begin(), queue_.end(), dead),
                 queue_.end());
    std::make_heap(queue_.begin(), queue_.end(), QueuedLater{});
  }
}

void EventSim::schedule_fault(SimTime delay, const FaultAction& action) {
  switch (action.kind) {
    case FaultAction::Kind::kCrash:
    case FaultAction::Kind::kRecover:
      check_node(action.node, "EventSim::schedule_fault");
      break;
    case FaultAction::Kind::kLinkDown:
    case FaultAction::Kind::kLinkUp:
      check_half_edge(action.node, action.port, "EventSim::schedule_fault");
      break;
    case FaultAction::Kind::kGlobalCorrupt:
      if (action.corrupt < 0.0 || action.corrupt > 1.0)
        throw std::invalid_argument(
            "EventSim::schedule_fault: corrupt outside [0, 1]");
      break;
  }
  SimEvent ev;
  ev.kind = SimEventKind::kFault;
  ev.timer_id = fault_actions_.size();  // index into fault_actions_
  fault_actions_.push_back(action);
  push(now_ + delay, ev);
}

void EventSim::apply_fault(const FaultAction& f) {
  switch (f.kind) {
    case FaultAction::Kind::kCrash:
    case FaultAction::Kind::kRecover:
      set_node_crashed(f.node, f.kind == FaultAction::Kind::kCrash);
      break;
    case FaultAction::Kind::kLinkDown:
    case FaultAction::Kind::kLinkUp:
      set_link_up(f.node, f.port, f.kind == FaultAction::Kind::kLinkUp);
      break;
    case FaultAction::Kind::kGlobalCorrupt:
      model_.corrupt = f.corrupt;
      break;
  }
  if (trace_limit_ != 0)
    record("F t=" + std::to_string(now_) + " " + to_string(f));
}

std::optional<SimEvent> EventSim::next() {
  while (!queue_.empty()) {
    std::pop_heap(queue_.begin(), queue_.end(), QueuedLater{});
    Queued q = queue_.back();
    queue_.pop_back();
    now_ = q.time;
    SimEvent& ev = q.event;
    if (ev.kind == SimEventKind::kFault) {
      apply_fault(fault_actions_[ev.timer_id]);
      continue;
    }
    if (ev.kind == SimEventKind::kTimer) {
      const auto it = cancelled_.find(ev.timer_id);
      if (it != cancelled_.end()) {  // lazily-cancelled: consume silently
        cancelled_.erase(it);
        ++timers_cancelled_;
        continue;
      }
      if (trace_limit_ != 0) record("E " + to_string(ev));
      return ev;
    }
    if (down_.count(link_id(ev.from, ev.from_port))) {
      // The direction died while the frame was in flight.
      ++frames_died_;
      if (trace_limit_ != 0) record("D " + to_string(ev));
      continue;
    }
    if (crashed_.count(ev.node)) {
      // Nobody is listening at the far end at this delivery instant.
      ++frames_crashed_;
      if (trace_limit_ != 0) record("C " + to_string(ev));
      continue;
    }
    ++frames_delivered_;
    if (trace_limit_ != 0) record("E " + to_string(ev));
    return ev;
  }
  return std::nullopt;
}

std::string to_string(const SimEvent& ev) {
  std::string s = "t=" + std::to_string(ev.time) +
                  " seq=" + std::to_string(ev.seq);
  if (ev.kind == SimEventKind::kTimer)
    return s + " timer id=" + std::to_string(ev.timer_id);
  return s + " arr node=" + std::to_string(ev.node) + " port=" +
         std::to_string(ev.port) + " from=" + std::to_string(ev.from) + "." +
         std::to_string(ev.from_port) + " f=" + std::to_string(ev.frame_id) +
         (ev.duplicate ? " dup" : "") + (ev.corrupted ? " corrupt" : "");
}

std::string to_string(const FaultAction& f) {
  switch (f.kind) {
    case FaultAction::Kind::kCrash:
      return "crash v=" + std::to_string(f.node);
    case FaultAction::Kind::kRecover:
      return "recover v=" + std::to_string(f.node);
    case FaultAction::Kind::kLinkDown:
      return "linkdown " + std::to_string(f.node) + "." +
             std::to_string(f.port);
    case FaultAction::Kind::kLinkUp:
      return "linkup " + std::to_string(f.node) + "." +
             std::to_string(f.port);
    case FaultAction::Kind::kGlobalCorrupt:
      return "corrupt p=" + std::to_string(f.corrupt);
  }
  return "?";
}

}  // namespace uesr::net
