// The one ARQ: a selective-repeat sliding window over the lossy event
// simulator (SNIPPETS.md's selective-repeat sender/receiver queues reduced
// to their invariant).  Stop-and-wait is its window-1, one-frame
// configuration (stop_and_wait() below): one DATA frame on the wire, one
// retransmission timer, resend with backoff until an ACK returns or the
// budget is spent — the classic frame protocol, with no second code path.
//
// One send() moves one MESSAGE of `frames_per_message` frames across the
// edge at (from, out_port), keeping up to `window` frames in flight at
// once:
//
//   * the sender launches frames into the window, arms one retransmission
//     timer per in-flight frame, and resends exactly the frames whose
//     timers fire (selective repeat — never go-back-N's wasteful replay);
//   * the receiver buffers out-of-order arrivals in a bitmap and acks
//     EVERY copy it sees (acks get lost too) with a (frame, cumulative)
//     pair: the selective half retires that frame from the sender's
//     window, the cumulative half retires every frame below it — so one
//     surviving ack can repair many lost ones;
//   * frames are processed exactly once and the message is complete only
//     when the receiver's cumulative counter covers it — exactly-once,
//     in-order delivery by construction.
//
// The result is the strongest one-hop contract a lossy channel admits:
//
//   * delivered == true   — every frame of the message was acked: the far
//                           end provably holds the whole message, in
//                           order, exactly once.
//   * delivered == false  — some frame spent its per-frame retry budget;
//                           the sender KNOWS NOTHING (any subset of frames
//                           and acks may be the lost half — the
//                           two-generals gap).  `message_arrived` is the
//                           simulator's ground truth, for soundness tests
//                           only; no protocol on the sender side may read
//                           it.
//
// This is what lets sessions written against Transport's send-semantics
// run unchanged over loss: a delivered send means exactly what
// Transport::send's return means, and a failed one aborts the session into
// the "uncertified after budget" verdict (DESIGN.md §2.10).
//
// Timeouts come from ONE Jacobson/Karn estimator per transport
// (net/rto.h), shared by every link it crosses: never-retransmitted frames
// feed it unambiguous RTT samples, timeouts back it off, and the
// backed-off value persists until the next clean sample.  Every schedule
// remains a pure function of (graph, seed, call sequence) — the
// adaptation consumes no randomness of its own — so
// enable_trace() replay stays byte-identical and reports thread-count
// invariant (pinned by the window replay-regression test).  EventSim keys
// every channel draw by (seed, link, send counter), never by frame id, so
// the window-1 configuration draws exactly what a dedicated stop-and-wait
// transport would.
//
// Fault semantics (DESIGN.md §2.12): a corrupted copy fails the frame
// check sequence and is dropped unprocessed — corruption degrades to loss
// and the per-frame timers recover it.  Node crash amnesia follows the
// TCP-SACK reneging discipline: the receiver's in-order delivered prefix
// (`cum`) is durable app state, but the out-of-order buffer above it is
// VOLATILE — a crash/recovery of the receiving node wipes it (tracked by
// the simulator's crash epoch).  Selective acks are therefore only
// advisory: `delivered` requires a CUMULATIVE ack covering the whole
// message (the watermark), never just every-frame-selectively-acked — so
// a receiver that reneged can cost liveness (the transfer dies into the
// two-generals gap) but never soundness, and the durable prefix plus
// globally-unique frame ids mean recovery can never double-deliver.
// Crash-free, watermark-completion is provably identical to
// all-frames-acked (receiver state is monotone), so the PR 7 replay pins
// hold byte for byte.
//
// Model note: the ARQ needs O(window) bits of LINK-layer state per
// endpoint (the in-flight bitmap; O(1) at window 1).  The ROUTING layer
// above stays stateless — nodes still store nothing between messages; the
// paper's model constrains the routing layer, not the radio.
#pragma once

#include <cstdint>
#include <vector>

#include "net/rto.h"
#include "net/sim.h"
#include "net/transport.h"

namespace uesr::net {

struct WindowOptions {
  /// In-flight frame cap; 1 paces one frame per round trip.  >= 1.
  std::uint32_t window = 8;
  /// Frames per message (the segmentation that makes the window matter
  /// across one hop).  In [1, 2^15).
  std::uint32_t frames_per_message = 8;
  /// Per-frame retransmission budget; a single frame exhausting it aborts
  /// the whole transfer.  Must be < 2^16 - 1.
  std::uint32_t max_retries = 8;
  /// Timeout estimation (shared Jacobson/Karn state across transfers).
  RtoOptions rto{};
};

/// The stop-and-wait budget and timeouts, in the shape the baselines,
/// bench drivers and lossy sessions configure them.  stop_and_wait() turns
/// it into the window-1, one-frame WindowOptions that runs it.
struct ReliableOptions {
  /// Retransmissions after the initial copy; the wire sees at most
  /// max_retries + 1 DATA copies per transfer.  Must be < 2^16 - 1.
  std::uint32_t max_retries = 8;
  /// Initial retransmission timeout (virtual time units); must be > 0.
  /// It only seeds the estimator — after the first clean sample the
  /// timeout tracks the measured RTT (net/rto.h).
  SimTime rto = 8;
  /// Backoff ceiling: the timeout doubles per retry, clamped here.
  SimTime rto_max = 1024;
  /// Floor of the adaptive timeout; must be > 0.
  SimTime rto_min = 4;
};

/// Stop-and-wait as a WindowTransport configuration: window 1, one frame
/// per message, `rto` -> rto.initial, `rto_min` -> rto.min, `rto_max` ->
/// rto.max; the retry budget carries over as it is.
WindowOptions stop_and_wait(const ReliableOptions& o);

/// What one sliding-window message transfer accomplished.
struct WindowOutcome {
  bool delivered = false;        ///< all frames acked: exactly-once, in order
  bool message_arrived = false;  ///< ground truth: receiver holds all frames
  Arrival arrival{};             ///< far end; valid once any DATA arrived
  std::uint32_t data_copies = 0;  ///< DATA frames put on the wire
  std::uint32_t ack_copies = 0;   ///< ACK frames put on the wire
  std::uint32_t retransmits = 0;  ///< timeout-driven DATA resends
  std::uint32_t backoffs = 0;     ///< RTO doublings applied
  std::uint32_t rtt_samples = 0;  ///< clean samples fed to the estimator
  /// Arrived copies the CRC rejected (corruption degraded to loss).
  std::uint32_t corrupt_drops = 0;
  /// Receiver crash/recovery cycles observed mid-transfer (each wiped the
  /// volatile out-of-order buffer — the amnesia events).
  std::uint32_t receiver_resets = 0;
  SimTime srtt = 0;     ///< smoothed RTT after this transfer (0: none)
  SimTime elapsed = 0;  ///< virtual time the transfer consumed
};

class WindowTransport {
 public:
  /// The graph must outlive the transport.  Throws on invalid options
  /// (including the RtoEstimator's: rto.initial, rto.min > 0 and
  /// rto.max >= both).
  WindowTransport(const graph::Graph& g, std::uint64_t seed,
                  LinkModel defaults = {}, WindowOptions options = {});

  /// One selective-repeat message transfer across the edge at
  /// (from, out_port), blocking in VIRTUAL time: drives the simulator
  /// until every frame is acked or some frame's retry budget is spent.
  /// Every DATA and ACK copy counts one wire transmission.
  WindowOutcome send(graph::NodeId from, graph::Port out_port);

  /// Completed send() calls so far (delivered or not).
  std::uint64_t transfers() const { return transfers_; }
  /// Total wire frames (DATA + ACK copies, lost ones included).
  std::uint64_t frames() const { return sim_.transmissions(); }

  // --- transport-lifetime retransmission aggregates ------------------------
  std::uint64_t total_retransmits() const { return total_retransmits_; }
  std::uint64_t total_backoffs() const { return total_backoffs_; }
  /// The transport's one estimator (its samples() are the lifetime total).
  const RtoEstimator& estimator() const { return estimator_; }

  const WindowOptions& options() const { return options_; }

  /// The underlying simulator, for one-sided flips and crash faults.
  EventSim& sim() { return sim_; }
  const EventSim& sim() const { return sim_; }

 private:
  /// Per-frame state of the transfer in progress, sender and receiver
  /// side.  Reset, not reallocated, by every send().
  struct Frame {
    SimTime sent_at = 0;     ///< launch time of the latest copy
    std::uint32_t attempt = 0;  ///< retransmissions so far (timer tag)
    bool acked = false;      ///< sender: retired from the window
    bool received = false;   ///< receiver: buffered (volatile above cum)
  };

  EventSim sim_;
  WindowOptions options_;
  std::vector<Frame> frame_state_;
  RtoEstimator estimator_;
  std::uint64_t transfers_ = 0;
  std::uint64_t total_retransmits_ = 0;
  std::uint64_t total_backoffs_ = 0;
};

}  // namespace uesr::net
