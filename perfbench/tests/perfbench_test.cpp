// The benchmark's own tests, at tiny sizes: every workload prints every
// named metric with its unit, the correctness gate trips on a corrupted
// report set, and the traced run's spans are well formed.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "baselines/workload.h"
#include "core/traffic.h"
#include "gate.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "perfbench.h"
#include "trace.h"

namespace perfbench {
namespace {

Options tiny(const std::string& workload, bool trace) {
  Options o;
  o.workload = workload;
  o.seed = 7;
  o.seconds = 0.01;  // one repetition
  o.trace = trace;
  o.tiny = true;
  return o;
}

std::vector<std::string> names_of(const std::vector<MetricDef>& defs) {
  std::vector<std::string> out;
  for (const MetricDef& d : defs) out.push_back(d.name);
  return out;
}

std::vector<std::string> names_of(const Result& r) {
  std::vector<std::string> out;
  for (const auto& [name, value] : r.metrics) out.push_back(name);
  return out;
}

TEST(Perfbench, EveryWorkloadPrintsEveryEndToEndMetricWithItsUnit) {
  for (const std::string& w : workload_names()) {
    SCOPED_TRACE(w);
    const Result r = run(tiny(w, false));
    EXPECT_TRUE(r.correct);
    EXPECT_GT(r.attempted, 0u);
    EXPECT_EQ(r.failed, 0u);
    ASSERT_EQ(names_of(r), names_of(end_to_end_metrics()));
    for (const auto& [name, value] : r.metrics) {
      EXPECT_TRUE(std::isfinite(value)) << name;
      EXPECT_GT(value, 0.0) << name;
    }
    const std::string json = result_json(r);
    for (const MetricDef& m : end_to_end_metrics())
      EXPECT_NE(json.find("\"" + m.name + "\": {\"value\": "),
                std::string::npos)
          << m.name;
    for (const MetricDef& m : end_to_end_metrics())
      EXPECT_NE(json.find("\"unit\": \"" + m.unit + "\""), std::string::npos)
          << m.name;
    EXPECT_EQ(json.rfind("{\"correct\": true, \"attempted\": ", 0), 0u);
  }
}

/// BENCHMARK.json at the repository root lists every metric the perfbench
/// binary prints, with the same units, and only workloads it knows.
TEST(Perfbench, BenchmarkJsonMatchesTheMetricTables) {
  std::ifstream f(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(f) << PERFBENCH_BENCHMARK_JSON;
  const std::string json((std::istreambuf_iterator<char>(f)),
                         std::istreambuf_iterator<char>());
  // Every listed name is a workload or a metric of the binary.
  std::set<std::string> known(workload_names().begin(),
                              workload_names().end());
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()})
    for (const MetricDef& m : *defs) known.insert(m.name);
  std::size_t names = 0;
  for (std::size_t at = json.find("\"name\": \""); at != std::string::npos;
       at = json.find("\"name\": \"", at + 1), ++names) {
    const std::size_t begin = at + 9;
    const std::string name = json.substr(begin, json.find('"', begin) - begin);
    EXPECT_EQ(known.count(name), 1u) << name;
  }
  EXPECT_GE(names, 2 + end_to_end_metrics().size() + per_layer_metrics().size());
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()})
    for (const MetricDef& m : *defs) {
      const std::size_t at = json.find("\"name\": \"" + m.name + "\"");
      ASSERT_NE(at, std::string::npos) << m.name;
      const std::size_t unit = json.find("\"unit\": \"", at);
      ASSERT_NE(unit, std::string::npos) << m.name;
      EXPECT_EQ(json.compare(unit + 9, m.unit.size() + 1, m.unit + "\""), 0)
          << m.name;
    }
}

TEST(Perfbench, UnknownWorkloadThrows) {
  EXPECT_THROW(run(tiny("no-such-workload", false)), std::invalid_argument);
}

/// Reports of a small static cluster run and their ground truth.
struct SmallRun {
  std::vector<uesr::core::SessionReport> reports;
  std::vector<std::vector<std::uint32_t>> truth;
};

SmallRun small_cluster_run() {
  using namespace uesr;
  const graph::Graph g =
      graph::disjoint_copies(graph::connected_gnp(8, 0.45, 211), 16);
  core::TrafficEngine engine(g, {});
  baselines::OpenLoopWorkload::Config cfg;
  cfg.cluster_size = 8;
  cfg.clusters = 16;
  cfg.sessions = 64;
  cfg.mean_interarrival = 0.5;
  cfg.seed = 3;
  baselines::OpenLoopWorkload src(cfg);
  engine.attach_arrivals(src);
  engine.run();
  return {engine.reports(), {graph::connected_components(g)}};
}

TEST(Gate, PassesOnTheEngineReports) {
  const SmallRun run = small_cluster_run();
  const Tally t = fold(run.reports, run.truth);
  EXPECT_EQ(t.sessions, 64u);
  EXPECT_EQ(t.unsound, 0u);
  EXPECT_TRUE(gate_failures(t, {64, true}).empty());
}

TEST(Gate, TripsOnOneFlippedVerdict) {
  SmallRun run = small_cluster_run();
  std::size_t i = 0;
  while (!run.reports[i].delivered) ++i;
  run.reports[i].delivered = false;
  run.reports[i].failure_certified = true;  // a certificate on a live path
  const Tally t = fold(run.reports, run.truth);
  EXPECT_EQ(t.unsound, 1u);
  EXPECT_FALSE(gate_failures(t, {64, false}).empty());
  EXPECT_FALSE(gate_failures(t, {64, true}).empty());
}

TEST(Gate, TripsOnABrokenAccountingIdentity) {
  SmallRun run = small_cluster_run();
  std::size_t i = 0;
  while (!run.reports[i].delivered) ++i;
  run.reports[i].departed = true;  // two outcomes for one session
  EXPECT_FALSE(gate_failures(fold(run.reports, run.truth), {64, false})
                   .empty());
  EXPECT_FALSE(gate_failures(fold(run.reports, run.truth), {65, false})
                   .empty());
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<Span> spans(4);
  spans[0] = {"parent", 0, 0, 0.0, 10.0};
  spans[1] = {"a", 1, 0, 1.0, 3.0};
  spans[2] = {"b", 1, 0, 2.0, 5.0};  // overlaps a
  spans[3] = {"c", 2, 0, 1.5, 2.5};  // grandchild: only a's child
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 6.0);
  EXPECT_DOUBLE_EQ(self[1], 1.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
}

TEST(Trace, TracedRunEmitsEveryPerLayerMetricAndWellFormedSpans) {
  for (const std::string& w : workload_names()) {
    SCOPED_TRACE(w);
    const Result r = run(tiny(w, true));
    EXPECT_TRUE(r.correct);
    ASSERT_EQ(names_of(r), names_of(per_layer_metrics()));
    for (const auto& [name, value] : r.metrics)
      EXPECT_TRUE(std::isfinite(value)) << name;

    const std::vector<Span>& spans = r.spans;
    ASSERT_FALSE(spans.empty());
    const std::vector<double> self = self_times(spans);
    std::vector<double> child_sum(spans.size(), 0.0);
    std::set<std::string> names;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      names.insert(s.name);
      EXPECT_GE(s.end_s, s.start_s) << s.name;
      EXPECT_GE(self[i], -1e-9) << s.name;
      if (s.parent == 0) continue;
      ASSERT_LT(s.parent, i + 1) << s.name;  // parents open first
      const Span& p = spans[s.parent - 1];
      EXPECT_LE(self[i], p.duration() + 1e-9) << s.name << " in " << p.name;
      EXPECT_GE(s.start_s, p.start_s) << s.name;
      EXPECT_LE(s.end_s, p.end_s) << s.name;
      child_sum[s.parent - 1] += s.duration();
      // Every span under a round carries that round's id.
      if (p.round != 0) {
        EXPECT_EQ(s.round, p.round) << s.name;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i)
      EXPECT_LE(child_sum[i], spans[i].duration() + 1e-9) << spans[i].name;
    for (const char* layer :
         {"graph.build", "core.traffic.ctor", "core.traffic.round",
          "baselines.arrivals", "baselines.fold", "explore.reduce",
          "explore.fill", "core.multi_walk.full", "core.multi_walk.budget1",
          "net.faults.sample", "core.lossy_route.ctor",
          "core.lossy_route.hops", "graph.epoch_advance",
          "explore.snapshot_reduce"})
      EXPECT_EQ(names.count(layer), 1u) << layer;
  }
}

}  // namespace
}  // namespace perfbench
