#include "gate.h"

#include <algorithm>

namespace perfbench {

Tally fold(const std::vector<uesr::core::SessionReport>& reports,
           const std::vector<std::vector<std::uint32_t>>& comp_by_epoch) {
  Tally t;
  t.latency_ticks.reserve(reports.size());
  for (const uesr::core::SessionReport& r : reports) {
    ++t.sessions;
    t.unfinished += !r.finished;
    t.ok += r.delivered;
    t.cert += r.failure_certified;
    t.exh += r.exhausted;
    t.dep += r.departed;
    t.uncert += r.uncertified;
    t.frames += r.transmissions;
    t.hops += r.hops;
    t.retransmits += r.retransmits;
    t.restarts += r.restarts;
    if (r.delivered) {
      t.vtime_delivered += r.virtual_time;
      t.latency_ticks.push_back(
          static_cast<double>(r.completed_at - r.admitted_at));
    }
    if (r.delivered || r.failure_certified) {
      const std::size_t e = static_cast<std::size_t>(std::min<std::uint64_t>(
          r.completion_epoch, comp_by_epoch.size() - 1));
      const bool reachable = comp_by_epoch[e][r.s] == comp_by_epoch[e][r.t];
      t.unsound += r.delivered ? !reachable : reachable;
    }
  }
  return t;
}

std::vector<std::string> gate_failures(const Tally& t, const GateRules& rules) {
  std::vector<std::string> out;
  if (t.sessions != rules.expected_sessions)
    out.push_back("sessions " + std::to_string(t.sessions) + " != expected " +
                  std::to_string(rules.expected_sessions));
  if (t.unfinished != 0)
    out.push_back(std::to_string(t.unfinished) + " sessions unfinished");
  if (t.ok + t.cert + t.exh + t.dep + t.uncert != t.sessions)
    out.push_back("ok + cert + exh + dep + uncert != sessions");
  if (t.unsound != 0)
    out.push_back("unsound == " + std::to_string(t.unsound));
  if (rules.no_certificates && t.cert != 0)
    out.push_back("cert == " + std::to_string(t.cert) +
                  " on intra-cluster pairs");
  return out;
}

}  // namespace perfbench
