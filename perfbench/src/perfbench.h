// The benchmark's workloads, metrics and runner (README.md in this
// directory has the workload table and the metric glossary).
//
// One run executes ONE named workload in the calling process: it builds
// the workload's inputs from the seed, runs the traffic engine on them
// repeatedly until the time budget is spent, checks every repetition with
// the correctness gate (gate.h), and reports medians.  A traced run
// additionally times calls into each library layer from the outside and
// reports the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
};

/// Metrics printed by an untraced run, in order, on every workload.
const std::vector<MetricDef>& end_to_end_metrics();
/// Metrics printed by a traced run, in order, on every workload.
const std::vector<MetricDef>& per_layer_metrics();
const std::vector<std::string>& workload_names();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measuring budget of the run
  bool trace = false;
  /// Test sizes: small graphs and a few hundred sessions, so the whole
  /// pipeline (gate, metrics, trace) runs in well under a second.
  bool tiny = false;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< sessions run, over all repetitions
  std::uint64_t failed = 0;     ///< sessions of repetitions the gate failed
  std::vector<std::pair<std::string, double>> metrics;  ///< definition order
  std::vector<std::string> notes;  ///< human-readable detail lines
  std::vector<Span> spans;         ///< traced run only
};

/// Runs one workload.  Throws std::invalid_argument for an unknown name.
Result run(const Options& options);

/// The result line: {"correct", "attempted", "failed", "metrics"} with each
/// metric as {"value", "unit"}.
std::string result_json(const Result& result);

}  // namespace perfbench
