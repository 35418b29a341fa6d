// The benchmark's correctness gate: folds one run's session reports and
// checks them against ground truth.
//
// Every run of every workload must satisfy:
//   * ok + cert + exh + dep + uncert == sessions, with every report
//     finished (each session ended with exactly one outcome);
//   * unsound == 0: no delivered verdict for an unreachable target and no
//     failure certificate for a reachable one, judged against the
//     component labels of the epoch the verdict is about (one entry for a
//     static graph; one per epoch, from an independent scenario replay,
//     for churn);
//   * cert == 0 on the cluster workloads, whose pairs are all
//     intra-cluster on connected clusters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/traffic.h"
#include "graph/graph.h"

namespace perfbench {

/// One run's reports folded in session-id order.
struct Tally {
  std::uint64_t sessions = 0;
  std::uint64_t unfinished = 0;
  std::uint64_t ok = 0;      ///< delivered
  std::uint64_t cert = 0;    ///< failure certificates
  std::uint64_t exh = 0;     ///< hybrid exhaustion (none expected here)
  std::uint64_t dep = 0;     ///< open-loop departures
  std::uint64_t uncert = 0;  ///< lossy budget-spent, no verdict
  std::uint64_t unsound = 0;
  std::uint64_t frames = 0;  ///< transmissions (wire frames when lossy)
  std::uint64_t hops = 0;    ///< lossy: successful link transfers
  std::uint64_t retransmits = 0;
  std::uint64_t restarts = 0;
  std::uint64_t vtime_delivered = 0;
  /// Completion latency (completed_at - admitted_at, clock ticks) of every
  /// delivered session, in session-id order.
  std::vector<double> latency_ticks;

  friend bool operator==(const Tally&, const Tally&) = default;
};

/// Folds reports and validates every hard verdict against
/// comp_by_epoch[min(completion_epoch, last)].
Tally fold(const std::vector<uesr::core::SessionReport>& reports,
           const std::vector<std::vector<std::uint32_t>>& comp_by_epoch);

struct GateRules {
  std::uint64_t expected_sessions = 0;
  bool no_certificates = false;  ///< cluster workloads
};

/// Human-readable gate violations; empty when the run is correct.
std::vector<std::string> gate_failures(const Tally& t, const GateRules& rules);

}  // namespace perfbench
